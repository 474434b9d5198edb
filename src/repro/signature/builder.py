"""Flow-sensitive signature building (paper §3.2).

The builder abstractly interprets the program — scoped to the methods the
network-aware slices identified — maintaining a *signature database* that
maps each variable to its signature term per basic block.  Statements are
processed in topological order of the intra-procedural CFG; at confluence
points the databases merge with disjunction (∨), and at loop headers the
loop-variant part of a string is marked repeatable (``rep``), exactly the
algorithm the paper describes in place of a classic fixed-point worklist.

Demarcation-point arrivals during interpretation record HTTP transactions:
the request object's assembled :class:`~repro.semantics.avals.RequestAV`
becomes the request signature, and a fresh
:class:`~repro.semantics.avals.ResponseAccumulator` collects the response
format from the fields the program subsequently reads — pairing requests
with responses *by construction* (context-sensitive evaluation resolves the
shared-demarcation-point ambiguity of paper Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apk.resources import Resources
from ..cfg.callgraph import CallGraph
from ..ir.method import Method
from ..ir.program import Program
from ..ir.statements import (
    AssignStmt,
    IdentityStmt,
    InvokeStmt,
    ReturnStmt,
    Stmt,
    StmtRef,
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
from ..obs.tracer import NULL_SPAN
from ..perf.index import ProgramIndex
from ..semantics.avals import (
    AppObjAV,
    AVal,
    NULL_AV,
    NumAV,
    ObjAV,
    RequestAV,
    RespRef,
    ResponseAccumulator,
    canon,
    merge_avals,
    to_term,
)
from ..semantics.model import Effect, SemanticModel, UNHANDLED, default_model
from .lang import (
    Concat,
    Const,
    JsonArray,
    Rep,
    Term,
    UNKNOWN_ANY,
    Unknown,
    alt,
    concat,
    rep,
)

_MAX_DEPTH = 24
_ENTRY_ORIGINS = {
    "ui": "user_input",
    "ui_custom": "user_input",
    "timer": None,
    "server_push": "server",
    "location": "location",
    "intent": "intent",
    "lifecycle": None,
}


@dataclass(slots=True)
class TxnRecord:
    """One reconstructed HTTP transaction (request + paired response)."""

    txn_id: int
    site: StmtRef
    root: str
    request: RequestAV
    acc: ResponseAccumulator | None = None
    consumer: str | None = None
    dp_class: str = ""

    @property
    def response_term(self) -> Term | None:
        return self.acc.to_term() if self.acc is not None else None


class ConnRecord:
    """Mutable HttpURLConnection state (see http_urlconn model)."""

    def __init__(self, conn_id: int, url: Term) -> None:
        self.conn_id = conn_id
        self.url = url
        self.method: str = "GET"
        self.headers: list[tuple[str, Term]] = []
        self.body_parts: list[Term] = []
        self.body_origins: set[str] = set()
        self._resp: RespRef | None = None

    def to_request(self) -> RequestAV:
        body = concat(*self.body_parts) if self.body_parts else None
        return RequestAV(
            methods=frozenset({self.method}),
            uri=self.url,
            headers=tuple(self.headers),
            body=body,
            body_origins=frozenset(self.body_origins),
        )

    def finalize(self, ctx: "SignatureInterpreter", site: StmtRef) -> RespRef | None:
        if self._resp is None:
            self._resp = ctx.record_transaction(site, self.to_request())
        return self._resp


@dataclass(slots=True)
class InterpResult:
    transactions: list[TxnRecord] = field(default_factory=list)
    evaluated_methods: set[str] = field(default_factory=set)


class _Frame:
    __slots__ = ("method", "env", "returns")

    def __init__(self, method: Method) -> None:
        self.method = method
        self.env: dict[str, AVal] = {}
        self.returns: list[AVal] = []


class SignatureInterpreter:
    """Implements :class:`~repro.semantics.model.InterpServices`."""

    def __init__(
        self,
        program: Program,
        callgraph: CallGraph,
        *,
        model: SemanticModel | None = None,
        resources: Resources | None = None,
        relevant_methods: set[str] | None = None,
        blocked_field_stores: set[StmtRef] | None = None,
        rounds: int = 2,
        index: ProgramIndex | None = None,
    ) -> None:
        self.program = program
        self.callgraph = callgraph
        self.model = model or default_model()
        self.resources = resources or Resources()
        self.relevant_methods = relevant_methods
        self.blocked_field_stores = blocked_field_stores or set()
        self.rounds = rounds
        #: memoizes CFGs, loop structure and traversal order across rounds
        #: and re-evaluated methods; shared with the slicer when passed in
        self.index = index if index is not None else ProgramIndex(program, callgraph)

        # interpretation state (reset per run)
        self.call_stack: list[StmtRef] = []
        self.current_root: str = ""
        self._field_store: dict[tuple[str, str], list[tuple[StmtRef | None, AVal]]] = {}
        self._db: dict[str, list[AVal]] = {}
        self._prefs: dict[str, AVal] = {}
        self._conns: list[ConnRecord] = []
        self._txn_ids: dict[tuple, int] = {}
        self._arrivals: dict[tuple, TxnRecord] = {}
        self._accs: dict[int, ResponseAccumulator] = {}
        self._memo: dict[tuple, AVal] = {}
        self._active: set[tuple] = set()
        self._evaluated: set[str] = set()
        # what the current round has read: heap cells, DB tables (a load
        # may merge every column) and preference keys
        self._read_fields: set[tuple[str, str]] = set()
        self._read_tables: set[str] = set()
        self._read_prefs: set[str] = set()
        #: a store in the current round gave an already-read cell a new value
        self._stale = False

    # ------------------------------------------------------------------ driver
    def run(self, roots: list[tuple[str, str]], *, span=NULL_SPAN) -> InterpResult:
        """Interpret each entry point.  ``roots`` — (method_id, trigger kind).

        Rounds repeat "until it does not discover new dependencies" (§3.4):
        the stores one round leaves (heap fields, DB rows, preferences)
        feed the next, so a value one event stores reaches a read another
        event made earlier.  A round is *stale* when it read a cell that a
        later store in the same round gave a new value; the first round
        with no stale read ends the run, since the next round would replay
        it exactly (DESIGN.md, "Signature extraction").  ``rounds`` caps
        the count.
        """
        for round_no in range(max(1, self.rounds)):
            evaluated_before = len(self._evaluated)
            round_span = span.child(f"round-{round_no + 1}")
            with round_span:
                self._arrivals.clear()
                self._accs.clear()
                self._memo.clear()
                self._conns.clear()
                self._read_fields.clear()
                self._read_tables.clear()
                self._read_prefs.clear()
                self._stale = False
                for method_id, kind in roots:
                    try:
                        method = self.program.method_by_id(method_id)
                    except KeyError:
                        continue
                    self.current_root = method_id
                    origin = _ENTRY_ORIGINS.get(kind, None)
                    args: list[AVal] = [
                        Unknown(_kind_of_type(p.name), origin=origin)
                        for p in method.sig.param_types
                    ]
                    this = AppObjAV.of(method.class_name) if not method.is_static else None
                    self.call_stack = []
                    self._eval_method(method, this, args, depth=0, memoize=False)
                # flush never-read connections (fire-and-forget sends)
                for conn in self._conns:
                    if conn._resp is None and conn.body_parts:
                        conn.finalize(self, StmtRef("<conn>", conn.conn_id))
            round_span.count(
                "methods_evaluated", len(self._evaluated) - evaluated_before
            )
            round_span.count("transactions", len(self._arrivals))
            if not self._stale:
                break
        if span:
            span.count("roots", len(roots))
            span.count("methods_evaluated", len(self._evaluated))
        return InterpResult(
            transactions=sorted(self._arrivals.values(), key=lambda t: t.txn_id),
            evaluated_methods=set(self._evaluated),
        )

    # --------------------------------------------------------- InterpServices
    def record_transaction(
        self,
        site: StmtRef,
        request: RequestAV,
        *,
        response_kind: str = "unknown",
        consumer: str | None = None,
    ) -> RespRef | None:
        key = (self.current_root, tuple(self.call_stack), site)
        txn_id = self._txn_ids.setdefault(key, len(self._txn_ids))
        acc = self._accs.get(txn_id)
        if acc is None:
            acc = ResponseAccumulator(txn_id=txn_id, kind=response_kind)
            self._accs[txn_id] = acc
        if consumer:
            acc.record_consumer(consumer)
        self._arrivals[key] = TxnRecord(
            txn_id=txn_id,
            site=site,
            root=self.current_root,
            request=request,
            acc=acc,
            consumer=consumer,
            dp_class=site.method_id,
        )
        return RespRef(frozenset({txn_id}))

    def acc_of(self, acc_id: int) -> ResponseAccumulator:
        return self._accs[acc_id]

    def mark_response_kind(self, ref: RespRef, kind: str) -> None:
        for acc_id in ref.accs:
            acc = self._accs.get(acc_id)
            if acc is not None and acc.kind in ("unknown", "text"):
                acc.kind = kind

    def record_access(self, ref: RespRef, leaf_kind: str | None = None) -> None:
        for acc_id in ref.accs:
            acc = self._accs.get(acc_id)
            if acc is not None:
                acc.record_access(ref.path, leaf_kind or "any")

    def record_consumer(self, ref_or_term, consumer: str) -> None:
        refs: list[int] = []
        if isinstance(ref_or_term, RespRef):
            refs = list(ref_or_term.accs)
        elif isinstance(ref_or_term, Term):
            from .lang import origins_of

            for origin in origins_of(ref_or_term):
                if origin.startswith("response:"):
                    ids = origin.split(":", 2)[1]
                    refs.extend(int(x) for x in ids.split(","))
        for acc_id in refs:
            acc = self._accs.get(acc_id)
            if acc is not None:
                acc.record_consumer(consumer)

    def call_app_method(
        self,
        class_name: str,
        method_name: str,
        args: list[AVal],
        this: AVal | None = None,
    ) -> AVal | None:
        cls = self.program.class_of(class_name)
        if cls is None:
            return None
        candidates = [m for m in cls.find_methods(method_name) if m.body is not None]
        if not candidates:
            for sup in self.program.superclasses(class_name):
                sup_cls = self.program.class_of(sup)
                if sup_cls is None:
                    break
                candidates = [
                    m for m in sup_cls.find_methods(method_name) if m.body is not None
                ]
                if candidates:
                    break
        if not candidates:
            return None
        method = candidates[0]
        if this is None and not method.is_static:
            this = AppObjAV.of(class_name)
        padded = list(args)[: len(method.sig.param_types)]
        while len(padded) < len(method.sig.param_types):
            padded.append(UNKNOWN_ANY)
        return self._eval_method(method, this, padded, depth=len(self.call_stack))

    def resource_string(self, rid: int) -> str | None:
        if self.resources.has_id(rid):
            return self.resources.get_string(rid)
        return None

    def db_store(self, table: str, column: str, value: AVal) -> None:
        bucket = self._db.setdefault((table, column), [])
        c = canon(value)
        if not any(canon(v) == c for v in bucket):
            bucket.append(value)
            if table in self._read_tables:
                self._stale = True

    def db_load(self, table: str, column: str | None = None) -> AVal:
        self._read_tables.add(table)
        buckets = [
            vs
            for (t, col), vs in self._db.items()
            if t == table and (column is None or col == column)
        ]
        values = [v for vs in buckets for v in vs]
        if not values:
            return Unknown("any", origin="database")
        merged = values[0]
        for v in values[1:]:
            merged = merge_avals(merged, v)
        return merged

    def pref_store(self, key: str, value: AVal) -> None:
        if key in self._read_prefs:
            # a store overwrites, so any difference is new: canon omits a
            # request's headers, and == equates 1 with 1.0
            old = self._prefs.get(key)
            if old != value or canon(old) != canon(value):
                self._stale = True
        self._prefs[key] = value

    def pref_load(self, key: str) -> AVal | None:
        self._read_prefs.add(key)
        return self._prefs.get(key)

    def conn_new(self, url_term: Term) -> int:
        conn = ConnRecord(len(self._conns), url_term)
        self._conns.append(conn)
        return conn.conn_id

    def conn_of(self, conn_id: int) -> ConnRecord:
        return self._conns[conn_id]

    def class_hierarchy_of(self, class_name: str) -> set[str]:
        return self.program.library_ancestors(class_name)

    # ------------------------------------------------------------ method eval
    def _eval_method(
        self,
        method: Method,
        this: AVal | None,
        args: list[AVal],
        depth: int,
        memoize: bool = True,
    ) -> AVal:
        if method.body is None:
            return UNKNOWN_ANY
        if depth > _MAX_DEPTH:
            return UNKNOWN_ANY
        if (
            self.relevant_methods is not None
            and method.method_id not in self.relevant_methods
        ):
            return UNKNOWN_ANY
        key = (
            method.method_id,
            canon(this) if this is not None else "",
            tuple(canon(a) for a in args),
        )
        if key in self._active:
            return UNKNOWN_ANY
        if memoize and key in self._memo:
            return self._memo[key]
        self._active.add(key)
        self._evaluated.add(method.method_id)
        try:
            result = self._interpret_body(method, this, args, depth)
        finally:
            self._active.discard(key)
        if memoize:
            self._memo[key] = result
        return result

    def _interpret_body(
        self, method: Method, this: AVal | None, args: list[AVal], depth: int
    ) -> AVal:
        cfg = self.index.cfg_of(method)
        if not cfg.blocks:
            return UNKNOWN_ANY
        loops = self.index.loop_info(method)
        rpo = self.index.rpo(method)
        frame = _Frame(method)
        out_envs: dict[int, dict[str, AVal]] = {}
        header_in_prev: dict[int, dict[str, AVal]] = {}

        passes = 3 if loops.headers else 1
        for pass_no in range(passes):
            frame.returns = []
            for bid in rpo:
                block = cfg.blocks[bid]
                preds = [p for p in cfg.pred[bid] if p in out_envs]
                env = _merge_envs([out_envs[p] for p in preds]) if preds else {}
                if loops.is_header(bid) and pass_no > 0:
                    prev_in = header_in_prev.get(bid, {})
                    env = _rep_adjust(prev_in, env)
                if loops.is_header(bid):
                    header_in_prev[bid] = dict(env)
                for stmt in block:
                    self._exec_stmt(stmt, frame, env, this, args, depth)
                out_envs[bid] = env
        if not frame.returns:
            return UNKNOWN_ANY if method.return_type.name != "void" else NULL_AV
        merged = frame.returns[0]
        for r in frame.returns[1:]:
            merged = merge_avals(merged, r)
        return merged

    # ------------------------------------------------------------- statements
    def _exec_stmt(
        self,
        stmt: Stmt,
        frame: _Frame,
        env: dict[str, AVal],
        this: AVal | None,
        args: list[AVal],
        depth: int,
    ) -> None:
        if isinstance(stmt, IdentityStmt):
            if isinstance(stmt.rhs, ThisRef):
                env[stmt.target.name] = this if this is not None else UNKNOWN_ANY
            elif isinstance(stmt.rhs, ParamRef):
                idx = stmt.rhs.index
                env[stmt.target.name] = args[idx] if idx < len(args) else UNKNOWN_ANY
            return
        if isinstance(stmt, AssignStmt):
            value = self._eval_value(stmt.rhs, frame, env, depth, stmt)
            target = stmt.target
            if isinstance(target, Local):
                env[target.name] = value
            elif isinstance(target, InstanceFieldRef):
                base = self._eval_value(target.base, frame, env, depth, stmt)
                if isinstance(base, ObjAV):
                    if isinstance(target.base, Local):
                        env[target.base.name] = base.put(target.field.name, value)
                else:
                    self._store_field(target.field, value, frame, stmt)
            elif isinstance(target, StaticFieldRef):
                self._store_field(target.field, value, frame, stmt)
            elif isinstance(target, ArrayRef):
                base = self._eval_value(target.base, frame, env, depth, stmt)
                if isinstance(base, ObjAV) and base.class_name == "array":
                    items = base.get("items", ()) or ()
                    if isinstance(target.base, Local):
                        env[target.base.name] = base.put("items", items + (value,))
            return
        if isinstance(stmt, InvokeStmt):
            self._eval_call(stmt.expr, frame, env, depth, stmt)
            return
        if isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                frame.returns.append(
                    self._eval_value(stmt.value, frame, env, depth, stmt)
                )
            else:
                frame.returns.append(NULL_AV)
            return
        # If / Goto / Nop / Throw: control structure only.

    def _store_field(self, fsig, value: AVal, frame: _Frame, stmt: Stmt) -> None:
        ref = frame.method.stmt_ref(stmt)
        key = (fsig.class_name, fsig.name)
        bucket = self._field_store.setdefault(key, [])
        c = canon(value)
        for existing_ref, existing in bucket:
            if existing_ref == ref and canon(existing) == c:
                return
        bucket.append((ref, value))
        # conservative: counts even an entry blocked_field_stores hides
        if key in self._read_fields:
            self._stale = True

    def _load_field(self, fsig, frame: _Frame) -> AVal:
        key = (fsig.class_name, fsig.name)
        self._read_fields.add(key)
        entries = self._field_store.get(key, [])
        usable = [
            v
            for ref, v in entries
            if ref is None or ref not in self.blocked_field_stores
        ]
        if not usable:
            return UNKNOWN_ANY
        merged = usable[0]
        for v in usable[1:]:
            merged = merge_avals(merged, v)
        return merged

    # ------------------------------------------------------------------ values
    def _eval_value(
        self,
        value: Value,
        frame: _Frame,
        env: dict[str, AVal],
        depth: int,
        stmt: Stmt,
    ) -> AVal:
        if isinstance(value, Local):
            return env.get(value.name, UNKNOWN_ANY)
        if isinstance(value, StringConst):
            return Const(value.value)
        if isinstance(value, IntConst):
            return NumAV(value.value)
        if isinstance(value, DoubleConst):
            return NumAV(value.value)
        if isinstance(value, NullConst):
            return NULL_AV
        if isinstance(value, ClassConst):
            return ObjAV("class", (("name", value.class_name),))
        if isinstance(value, NewExpr):
            name = value.class_type.name
            if self.program.has_class(name):
                return AppObjAV.of(name)
            return ObjAV("uninit:" + name)
        if isinstance(value, NewArrayExpr):
            return ObjAV("array", (("items", ()),))
        if isinstance(value, InvokeExpr):
            return self._eval_call(value, frame, env, depth, stmt)
        if isinstance(value, InstanceFieldRef):
            base = self._eval_value(value.base, frame, env, depth, stmt)
            if isinstance(base, ObjAV):
                attr = base.get(value.field.name)
                if attr is not None:
                    return attr
            if isinstance(base, RespRef):
                child = base.child(value.field.name)
                self.record_access(child)
                return child
            return self._load_field(value.field, frame)
        if isinstance(value, StaticFieldRef):
            return self._load_field(value.field, frame)
        if isinstance(value, ArrayRef):
            base = self._eval_value(value.base, frame, env, depth, stmt)
            if isinstance(base, ObjAV) and base.class_name == "array":
                items = base.get("items", ()) or ()
                idx = self._eval_value(value.index, frame, env, depth, stmt)
                if isinstance(idx, NumAV) and 0 <= int(idx.value) < len(items):
                    return items[int(idx.value)]
                if len(items) == 1:
                    return items[0]
                if items:
                    merged = items[0]
                    for i in items[1:]:
                        merged = merge_avals(merged, i)
                    return merged
            return UNKNOWN_ANY
        if isinstance(value, BinOpExpr):
            return self._eval_binop(value, frame, env, depth, stmt)
        if isinstance(value, UnOpExpr):
            inner = self._eval_value(value.operand, frame, env, depth, stmt)
            if value.op == "-" and isinstance(inner, NumAV):
                return NumAV(-inner.value)
            return Unknown("bool" if value.op == "!" else "int")
        if isinstance(value, CastExpr):
            return self._eval_value(value.value, frame, env, depth, stmt)
        if isinstance(value, InstanceOfExpr):
            return Unknown("bool")
        if isinstance(value, LengthExpr):
            base = self._eval_value(value.array, frame, env, depth, stmt)
            if isinstance(base, ObjAV) and base.class_name == "array":
                return NumAV(len(base.get("items", ()) or ()))
            return Unknown("int")
        return UNKNOWN_ANY

    def _eval_binop(
        self, expr: BinOpExpr, frame: _Frame, env, depth: int, stmt: Stmt
    ) -> AVal:
        left = self._eval_value(expr.left, frame, env, depth, stmt)
        right = self._eval_value(expr.right, frame, env, depth, stmt)
        op = expr.op
        if op == "+":
            if isinstance(left, NumAV) and isinstance(right, NumAV):
                return NumAV(left.value + right.value)
            lt, rt = to_term(left), to_term(right)
            numericish = all(
                isinstance(v, NumAV)
                or (isinstance(t, Unknown) and t.kind in ("int", "float"))
                for v, t in ((left, lt), (right, rt))
            )
            if numericish:
                return Unknown("int")
            return concat(lt, rt)
        if op in ("-", "*", "/", "%"):
            if isinstance(left, NumAV) and isinstance(right, NumAV):
                try:
                    result = {
                        "-": lambda a, b: a - b,
                        "*": lambda a, b: a * b,
                        "/": lambda a, b: a // b if isinstance(a, int) else a / b,
                        "%": lambda a, b: a % b,
                    }[op](left.value, right.value)
                    return NumAV(result)
                except ZeroDivisionError:
                    return Unknown("int")
            return Unknown("int")
        return Unknown("bool")

    # ------------------------------------------------------------------- calls
    def _eval_call(
        self,
        expr: InvokeExpr,
        frame: _Frame,
        env: dict[str, AVal],
        depth: int,
        stmt: Stmt,
    ) -> AVal:
        site = frame.method.stmt_ref(stmt)
        base_aval = (
            self._eval_value(expr.base, frame, env, depth, stmt)
            if expr.base is not None
            else None
        )
        arg_avals = [self._eval_value(a, frame, env, depth, stmt) for a in expr.args]

        receiver = expr.sig.class_name
        if isinstance(expr.base, Local):
            receiver = expr.base.type.name

        # 1) application-code dispatch
        app_result = self._try_app_dispatch(
            expr, site, receiver, base_aval, arg_avals, depth
        )
        if app_result is not UNHANDLED:
            return self._apply_effect(app_result, expr, env)

        # 2) semantic models on the receiver's (static) type
        for cls_name in (receiver, expr.sig.class_name):
            handler = self.model.lookup(cls_name, expr.sig.name)
            if handler is not None:
                outcome = handler(self, site, expr, base_aval, arg_avals)
                if outcome is not UNHANDLED:
                    return self._apply_effect(outcome, expr, env)

        # 3) framework dispatch through library ancestors (AsyncTask etc.)
        if self.program.has_class(receiver):
            ancestors = self.program.library_ancestors(receiver)
            handler = self.model.lookup_dispatch(ancestors, expr.sig.name)
            if handler is not None:
                outcome = handler(self, site, expr, base_aval, arg_avals)
                if outcome is not UNHANDLED:
                    return self._apply_effect(outcome, expr, env)

        # 4) unmodeled library call: conservative result
        if isinstance(base_aval, RespRef):
            return Unknown("any", origin=base_aval.origin_tag())
        for arg in arg_avals:
            if isinstance(arg, RespRef):
                return Unknown("any", origin=arg.origin_tag())
        return UNKNOWN_ANY

    def _try_app_dispatch(
        self, expr, site, receiver, base_aval, arg_avals, depth
    ):
        sig = expr.sig
        if expr.kind == "static":
            target = self.program.resolve_static(sig)
            if target is None:
                return UNHANDLED
            return self._call_app(site, target, None, arg_avals, depth)
        if sig.name == "<init>":
            if isinstance(base_aval, AppObjAV):
                cls = sorted(base_aval.classes)[0]
                target = self.program.resolve_dispatch(cls, sig)
                if target is not None:
                    self._call_app(site, target, base_aval, arg_avals, depth)
                return Effect(result=None)
            return UNHANDLED
        dynamic_classes: list[str] = []
        if isinstance(base_aval, AppObjAV):
            dynamic_classes = sorted(base_aval.classes)
        elif self.program.has_class(receiver):
            dynamic_classes = [receiver]
        results = []
        for cls in dynamic_classes:
            target = self.program.resolve_dispatch(cls, sig)
            if target is not None:
                results.append(
                    self._call_app(site, target, base_aval, arg_avals, depth)
                )
        if not results:
            return UNHANDLED
        merged = results[0]
        for r in results[1:]:
            merged = merge_avals(merged, r)
        return merged

    def _call_app(self, site, target, this, args, depth) -> AVal:
        padded = list(args)[: len(target.sig.param_types)]
        while len(padded) < len(target.sig.param_types):
            padded.append(UNKNOWN_ANY)
        self.call_stack.append(site)
        try:
            return self._eval_method(target, this, padded, depth + 1)
        finally:
            self.call_stack.pop()

    @staticmethod
    def _apply_effect(outcome, expr: InvokeExpr, env: dict[str, AVal]) -> AVal:
        if isinstance(outcome, Effect):
            if outcome.new_base is not None and isinstance(expr.base, Local):
                env[expr.base.name] = outcome.new_base
            return outcome.result if outcome.result is not None else NULL_AV
        return outcome if outcome is not None else NULL_AV


# ----------------------------------------------------------------- env merging
def _merge_envs(envs: list[dict[str, AVal]]) -> dict[str, AVal]:
    if len(envs) == 1:
        return dict(envs[0])
    out: dict[str, AVal] = {}
    keys: set[str] = set()
    for e in envs:
        keys |= set(e)
    for key in keys:
        present = [e[key] for e in envs if key in e]
        merged = present[0]
        for v in present[1:]:
            merged = merge_avals(merged, v)
        out[key] = merged
    return out


def _rep_adjust(prev: dict[str, AVal], new: dict[str, AVal]) -> dict[str, AVal]:
    """Loop-header merge: loop-variant growth becomes ``rep`` (paper §3.2)."""
    out = dict(new)
    for key, old_val in prev.items():
        new_val = new.get(key)
        if new_val is None or canon(new_val) == canon(old_val):
            out[key] = old_val if new_val is None else new_val
            continue
        # Widen loop-carried numerics: a counter that changes across the
        # back edge becomes <?int>, never a disjunction of concrete values.
        if isinstance(old_val, NumAV) or (
            isinstance(old_val, Unknown) and old_val.kind in ("int", "float")
        ):
            kind = old_val.kind if isinstance(old_val, Unknown) else "int"
            out[key] = Unknown(kind)
            continue
        out[key] = detect_rep(old_val, new_val)
    return out


def detect_rep(old: AVal, new: AVal) -> AVal:
    """If ``new`` extends ``old`` (string suffix growth or array growth),
    mark the growing part repeatable; otherwise fall back to merging."""
    old_t = old if isinstance(old, Term) else None
    new_t = new if isinstance(new, Term) else None
    if old_t is not None and new_t is not None:
        # Confluence at a loop header merges {initial, grown} into an Alt;
        # recognise the growth across the options.
        from .lang import Alt as _Alt

        if isinstance(new_t, _Alt):
            suffixes = []
            for option in new_t.options:
                if option == old_t:
                    continue
                suffix = _strip_prefix(old_t, option)
                if suffix is None:
                    break
                suffixes.append(suffix)
            else:
                if suffixes:
                    return _fold_rep(old_t, alt(*suffixes))
        suffix = _strip_prefix(old_t, new_t)
        if suffix is not None:
            return _fold_rep(old_t, suffix)
        if isinstance(old_t, JsonArray) and isinstance(new_t, JsonArray):
            if new_t.fixed[: len(old_t.fixed)] == old_t.fixed and len(
                new_t.fixed
            ) > len(old_t.fixed):
                extra = new_t.fixed[len(old_t.fixed):]
                elem = extra[0]
                for e in extra[1:]:
                    elem = alt(elem, e)
                if old_t.elem is not None:
                    elem = alt(old_t.elem, elem)
                return JsonArray(fixed=old_t.fixed, elem=elem)
    return merge_avals(old, new)


def _fold_rep(prefix: Term, suffix: Term) -> Term:
    """``prefix + Rep(suffix)``, folding into an existing trailing rep so a
    later widening pass refines the rep body instead of stacking reps."""
    parts = prefix.parts if isinstance(prefix, Concat) else (prefix,)
    if parts and isinstance(parts[-1], Rep):
        last = parts[-1]
        return concat(*parts[:-1], rep(alt(last.body, suffix)))
    return concat(prefix, rep(suffix))


def _strip_prefix(old: Term, new: Term) -> Term | None:
    """Return the suffix of ``new`` after prefix ``old``, or None."""
    o = old.parts if isinstance(old, Concat) else (old,)
    n = new.parts if isinstance(new, Concat) else (new,)
    if len(n) < len(o):
        return None
    if tuple(n[: len(o)]) == tuple(o):
        if len(n) == len(o):
            return None  # identical
        return concat(*n[len(o):])
    # allow the boundary const to have grown: ("a",) vs ("ab", X) or ("ab",)
    if (
        o
        and isinstance(o[-1], Const)
        and isinstance(n[len(o) - 1], Const)
        and n[len(o) - 1].text.startswith(o[-1].text)
        and tuple(n[: len(o) - 1]) == tuple(o[:-1])
    ):
        grown = n[len(o) - 1].text[len(o[-1].text):]
        if not grown and len(n) == len(o):
            return None
        return concat(Const(grown), *n[len(o):])
    return None


def _kind_of_type(type_name: str) -> str:
    if type_name in ("int", "long", "short", "byte"):
        return "int"
    if type_name in ("float", "double"):
        return "float"
    if type_name == "boolean":
        return "bool"
    if type_name == "java.lang.String":
        return "str"
    return "any"


__all__ = [
    "ConnRecord",
    "InterpResult",
    "SignatureInterpreter",
    "TxnRecord",
    "detect_rep",
]
