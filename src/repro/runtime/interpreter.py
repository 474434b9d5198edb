"""Concrete IR interpreter — executes corpus apps for the dynamic baselines.

The interpreter runs the *same* Jimple-level programs the static pipeline
analyses, against the in-process HTTP stack, so UI fuzzing produces genuine
traffic traces to compare signatures with (paper §5.1's methodology:
"collect traffic traces of all HTTP(S) transactions using UI-fuzzing ...
then match the traffic traces with our regex signatures").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..apk.model import Apk, EntryPoint
from ..ir.method import Method
from ..ir.statements import (
    AssignStmt,
    GotoStmt,
    IdentityStmt,
    IfStmt,
    InvokeStmt,
    NopStmt,
    ReturnStmt,
    Stmt,
    ThrowStmt,
)
from ..ir.values import (
    ArrayRef,
    BinOpExpr,
    CastExpr,
    ClassConst,
    DoubleConst,
    InstanceFieldRef,
    InstanceOfExpr,
    IntConst,
    InvokeExpr,
    LengthExpr,
    Local,
    NewArrayExpr,
    NewExpr,
    NullConst,
    ParamRef,
    StaticFieldRef,
    StringConst,
    ThisRef,
    UnOpExpr,
    Value,
)
from .httpstack import HttpRequest, HttpResponse, Network
from .objects import RtDatabase, RtObject, RtRequest
from .stdlib import API, DISPATCH, Rebind, RtClassRef, java_str


class RuntimeError_(Exception):
    """Execution fault inside the interpreted app (missing key, bad route);
    fuzzers catch these and continue, like a crashed Activity."""


@dataclass
class ScheduledCall:
    target: RtObject
    method_name: str
    delay_ms: float


@dataclass
class RuntimeStats:
    steps: int = 0
    calls: int = 0
    faults: list[str] = field(default_factory=list)


class Runtime:
    """Executes one app instance against a network."""

    MAX_STEPS = 500_000
    MAX_DEPTH = 64

    def __init__(self, apk: Apk, network: Network, *, seed: int = 7) -> None:
        self.apk = apk
        self.program = apk.program
        self.network = network
        self.resources = apk.resources
        self.rng = random.Random(seed)
        self.statics: dict[tuple[str, str], object] = {}
        self.prefs: dict[str, str] = {}
        self.db = RtDatabase()
        self.pending: list[ScheduledCall] = []
        self.stats = RuntimeStats()
        self.current_call_name = ""
        self.android_id = "android-id-42"
        self.device_uuid = "00000000-0000-4000-8000-0000000000aa"
        self._clock = 1_480_000_000_000
        self._text_inputs = ["cats", "hiphop", "alice", "secret"]
        self._text_idx = 0
        self._intent_extras: dict[str, str] = {}
        self._instances: dict[str, RtObject] = {}

    # -- environment hooks ---------------------------------------------------
    def clock(self) -> int:
        self._clock += 13
        return self._clock

    def next_text_input(self) -> str:
        value = self._text_inputs[self._text_idx % len(self._text_inputs)]
        self._text_idx += 1
        return value

    def intent_extra(self, key: str) -> str:
        return self._intent_extras.get(key, f"extra-{key}")

    def send(self, req: RtRequest) -> HttpResponse:
        request = HttpRequest(
            method=req.method,
            url=req.url,
            headers=dict(req.headers),
            body=req.body,
        )
        return self.network.send(request)

    def schedule(self, target: RtObject, method_name: str, delay_ms: float) -> None:
        self.pending.append(ScheduledCall(target, method_name, delay_ms))

    def drain_scheduled(self, *, max_delay_ms: float = 0.0) -> int:
        """Run scheduled callbacks with delay ≤ budget.  Fuzzing sessions are
        short: long-delay timers never fire during a fuzz run (§5.1)."""
        fired = 0
        pending, self.pending = self.pending, []
        remaining = []
        for call in pending:
            if call.delay_ms <= max_delay_ms:
                try:
                    self.call_method(call.target, call.method_name, [])
                except RuntimeError_ as exc:
                    self.stats.faults.append(f"scheduled {call.method_name}: {exc}")
                fired += 1
            else:
                remaining.append(call)
        # callbacks may have scheduled more work; keep both sets
        self.pending.extend(remaining)
        return fired

    # -- reflection (gson) -------------------------------------------------------
    def reflect_serialize(self, obj) -> object:
        if isinstance(obj, RtObject):
            out = {}
            cls = self.program.class_of(obj.class_name)
            while cls is not None:
                for fname, fsig in cls.fields.items():
                    out[fname] = self.reflect_serialize(obj.fields.get(fname))
                cls = self.program.class_of(cls.superclass) if cls.superclass else None
            return out
        return obj

    def reflect_bind(self, data, class_name: str):
        cls = self.program.class_of(class_name)
        if cls is None or not isinstance(data, dict):
            return data
        obj = RtObject(class_name)
        current = cls
        while current is not None:
            for fname, fsig in current.fields.items():
                value = data.get(fname)
                if self.program.has_class(fsig.type.name):
                    value = self.reflect_bind(value, fsig.type.name)
                obj.fields[fname] = value
            current = (
                self.program.class_of(current.superclass) if current.superclass else None
            )
        return obj

    # -- entry points ----------------------------------------------------------
    def singleton(self, class_name: str) -> RtObject:
        """App components are singletons across one runtime session so heap
        state (tokens, pagination cursors) persists between events."""
        obj = self._instances.get(class_name)
        if obj is None:
            obj = RtObject(class_name)
            self._instances[class_name] = obj
        return obj

    def fire_entrypoint(self, ep: EntryPoint) -> None:
        method = self.program.method_by_id(ep.method_id)
        this = None if method.is_static else self.singleton(method.class_name)
        args = [self._default_arg(p.name) for p in method.sig.param_types]
        self.call(method, this, args)

    def _default_arg(self, type_name: str) -> object:
        from .objects import RtLocation

        if type_name in ("int", "long", "short", "byte"):
            return 0
        if type_name in ("float", "double"):
            return 0.0
        if type_name == "boolean":
            return False
        if type_name == "java.lang.String":
            return self.next_text_input()
        if type_name == "android.location.Location":
            return RtLocation()
        if type_name == "org.json.JSONObject":
            return {}
        if self.program.has_class(type_name):
            return self.singleton(type_name)
        return None

    # -- calls -------------------------------------------------------------------
    def call_method(self, obj: RtObject, method_name: str, args: list) -> object:
        target = None
        for cname in self.program.superclasses(obj.class_name):
            cls = self.program.class_of(cname)
            if cls is None:
                break
            found = [m for m in cls.find_methods(method_name) if m.body is not None]
            if found:
                target = found[0]
                break
        if target is None:
            return None
        padded = list(args)[: len(target.sig.param_types)]
        while len(padded) < len(target.sig.param_types):
            padded.append(None)
        return self.call(target, obj, padded)

    def call(self, method: Method, this, args: list, depth: int = 0) -> object:
        if depth > self.MAX_DEPTH:
            raise RuntimeError_(f"call depth exceeded at {method.method_id}")
        body = method.body
        if body is None:
            return None
        self.stats.calls += 1
        env: dict[str, object] = {}
        pc = 0
        statements = body.statements
        while pc < len(statements):
            self.stats.steps += 1
            if self.stats.steps > self.MAX_STEPS:
                raise RuntimeError_("step budget exceeded")
            stmt = statements[pc]
            if isinstance(stmt, IdentityStmt):
                if isinstance(stmt.rhs, ThisRef):
                    env[stmt.target.name] = this
                elif isinstance(stmt.rhs, ParamRef):
                    env[stmt.target.name] = (
                        args[stmt.rhs.index] if stmt.rhs.index < len(args) else None
                    )
                pc += 1
            elif isinstance(stmt, AssignStmt):
                self._exec_assign(stmt, env, depth)
                pc += 1
            elif isinstance(stmt, InvokeStmt):
                self._eval_call(stmt.expr, env, depth)
                pc += 1
            elif isinstance(stmt, IfStmt):
                if self._truthy(self._eval(stmt.condition, env, depth)):
                    pc = body.label_index(stmt.target)
                else:
                    pc += 1
            elif isinstance(stmt, GotoStmt):
                pc = body.label_index(stmt.target)
            elif isinstance(stmt, ReturnStmt):
                if stmt.value is not None:
                    return self._eval(stmt.value, env, depth)
                return None
            elif isinstance(stmt, ThrowStmt):
                raise RuntimeError_(f"app threw at {method.method_id}#{stmt.index}")
            elif isinstance(stmt, NopStmt):
                pc += 1
            else:
                pc += 1
        return None

    # -- statement helpers -----------------------------------------------------
    def _exec_assign(self, stmt: AssignStmt, env: dict, depth: int) -> None:
        value = self._eval(stmt.rhs, env, depth)
        target = stmt.target
        if isinstance(target, Local):
            env[target.name] = value
        elif isinstance(target, InstanceFieldRef):
            base = self._eval(target.base, env, depth)
            if isinstance(base, RtObject):
                base.fields[target.field.name] = value
            elif base is None:
                raise RuntimeError_("null field store")
        elif isinstance(target, StaticFieldRef):
            self.statics[(target.field.class_name, target.field.name)] = value
        elif isinstance(target, ArrayRef):
            base = self._eval(target.base, env, depth)
            idx = int(self._eval(target.index, env, depth))
            if isinstance(base, list):
                while len(base) <= idx:
                    base.append(None)
                base[idx] = value

    @staticmethod
    def _truthy(value) -> bool:
        if value is None:
            return False
        if isinstance(value, (int, float, bool)):
            return bool(value)
        return True

    # -- value evaluation -----------------------------------------------------
    def _eval(self, value: Value, env: dict, depth: int):
        if isinstance(value, Local):
            return env.get(value.name)
        if isinstance(value, StringConst):
            return value.value
        if isinstance(value, IntConst):
            return value.value
        if isinstance(value, DoubleConst):
            return value.value
        if isinstance(value, NullConst):
            return None
        if isinstance(value, ClassConst):
            return RtClassRef(value.class_name)
        if isinstance(value, NewExpr):
            name = value.class_type.name
            if self.program.has_class(name):
                return RtObject(name)
            return ("uninit", name)
        if isinstance(value, NewArrayExpr):
            size = int(self._eval(value.size, env, depth))
            return [None] * size
        if isinstance(value, InvokeExpr):
            return self._eval_call(value, env, depth)
        if isinstance(value, InstanceFieldRef):
            base = self._eval(value.base, env, depth)
            if isinstance(base, RtObject):
                return base.fields.get(value.field.name)
            if base is None:
                raise RuntimeError_(f"null field read of {value.field.name}")
            return getattr(base, value.field.name, None)
        if isinstance(value, StaticFieldRef):
            return self.statics.get((value.field.class_name, value.field.name))
        if isinstance(value, ArrayRef):
            base = self._eval(value.base, env, depth)
            idx = int(self._eval(value.index, env, depth))
            return base[idx] if isinstance(base, list) and idx < len(base) else None
        if isinstance(value, BinOpExpr):
            return self._eval_binop(value, env, depth)
        if isinstance(value, UnOpExpr):
            inner = self._eval(value.operand, env, depth)
            if value.op == "!":
                return not self._truthy(inner)
            if value.op == "-":
                return -(inner or 0)
            return inner
        if isinstance(value, CastExpr):
            return self._eval(value.value, env, depth)
        if isinstance(value, InstanceOfExpr):
            inner = self._eval(value.value, env, depth)
            return isinstance(inner, RtObject) and value.check_type.name in set(
                self.program.superclasses(inner.class_name)
            )
        if isinstance(value, LengthExpr):
            inner = self._eval(value.array, env, depth)
            return len(inner) if isinstance(inner, (list, str)) else 0
        raise RuntimeError_(f"cannot evaluate {value!r}")

    def _eval_binop(self, expr: BinOpExpr, env: dict, depth: int):
        left = self._eval(expr.left, env, depth)
        right = self._eval(expr.right, env, depth)
        op = expr.op
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return java_str(left) + java_str(right)
            return (left or 0) + (right or 0)
        if op in ("-", "*", "/", "%"):
            l, r = left or 0, right or 0
            if op == "-":
                return l - r
            if op == "*":
                return l * r
            if op == "/":
                return l // r if isinstance(l, int) and isinstance(r, int) else l / r
            return l % r
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return (left or 0) < (right or 0)
        if op == "<=":
            return (left or 0) <= (right or 0)
        if op == ">":
            return (left or 0) > (right or 0)
        if op == ">=":
            return (left or 0) >= (right or 0)
        if op == "&&":
            return self._truthy(left) and self._truthy(right)
        if op == "||":
            return self._truthy(left) or self._truthy(right)
        raise RuntimeError_(f"bad operator {op}")

    # -- call dispatch --------------------------------------------------------------
    def _eval_call(self, expr: InvokeExpr, env: dict, depth: int):
        base = self._eval(expr.base, env, depth) if expr.base is not None else None
        args = [self._eval(a, env, depth) for a in expr.args]
        sig = expr.sig
        receiver = sig.class_name
        if isinstance(expr.base, Local):
            receiver = expr.base.type.name

        # 1) application dispatch
        if isinstance(base, RtObject):
            target = self.program.resolve_dispatch(base.class_name, sig)
            if target is not None:
                return self.call(target, base, args, depth + 1)
            # framework dispatch through library ancestors
            handler = self._lookup_dispatch(base.class_name, sig.name)
            if handler is not None:
                return self._apply(handler, expr, base, args, env)
        if expr.kind == "static":
            target = self.program.resolve_static(sig)
            if target is not None:
                return self.call(target, None, args, depth + 1)
        if sig.name == "<init>" and isinstance(base, RtObject):
            cls = self.program.class_of(base.class_name)
            target = self.program.resolve_dispatch(base.class_name, sig)
            if target is not None:
                return self.call(target, base, args, depth + 1)
            return None  # implicit default constructor

        # 2) library API
        for cls_name in (receiver, sig.class_name):
            handler = API.get((cls_name, sig.name))
            if handler is not None:
                return self._apply(handler, expr, base, args, env)

        # 3) unknown: record a fault but keep running (apps tolerate)
        self.stats.faults.append(f"unmodeled call {receiver}.{sig.name}")
        return None

    def _lookup_dispatch(self, class_name: str, method_name: str):
        for ancestor in self.program.library_ancestors(class_name):
            handler = DISPATCH.get((ancestor, method_name))
            if handler is not None:
                return handler
        return None

    def _apply(self, handler, expr: InvokeExpr, base, args, env):
        self.current_call_name = expr.sig.name
        try:
            outcome = handler(self, base, args)
        except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
            raise RuntimeError_(
                f"library fault in {expr.sig.qualified_name}: {exc}"
            ) from exc
        if isinstance(outcome, Rebind):
            if isinstance(expr.base, Local):
                env[expr.base.name] = outcome.value
            return outcome.result
        return outcome


__all__ = ["Runtime", "RuntimeError_", "RuntimeStats", "ScheduledCall"]
