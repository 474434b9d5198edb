"""Jimple-style intermediate representation (the Soot/Dexpler substitute).

See DESIGN.md: Extractocol runs on Jimple, so the reproduction rebuilds the
Jimple level — typed three-address code with classes, fields, virtual
dispatch, branches and loops — plus a programmatic builder, pretty-printer,
textual parser and validator.
"""

from .builder import ClassBuilder, MethodBuilder, ProgramBuilder, as_value
from .classes import ClassDef
from .method import Body, Method, UndefinedLabel, make_sig
from .program import Program
from .statements import (
    AssignStmt,
    GotoStmt,
    IdentityStmt,
    IfStmt,
    InvokeStmt,
    NopStmt,
    ReturnStmt,
    Stmt,
    StmtRef,
    ThrowStmt,
)
from .types import (
    ArrayType,
    ClassType,
    PrimType,
    Type,
    array_t,
    class_t,
    parse_type,
)
from .values import (
    ArrayRef,
    BinOpExpr,
    CastExpr,
    ClassConst,
    Constant,
    DoubleConst,
    FieldSig,
    InstanceFieldRef,
    InstanceOfExpr,
    IntConst,
    InvokeExpr,
    LengthExpr,
    Local,
    MethodSig,
    NULL,
    NewArrayExpr,
    NewExpr,
    NullConst,
    ParamRef,
    StaticFieldRef,
    StringConst,
    ThisRef,
    UnOpExpr,
    Value,
    field_sig,
    walk_values,
)
from .validate import (
    assert_valid,
    superclass_cycles,
    validate_method,
    validate_program,
)

__all__ = [name for name in dir() if not name.startswith("_")]
