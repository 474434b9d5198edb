"""Pipeline-soundness lints (``SEM0xx`` rules).

The taint engine treats a call with neither an app body nor a
:mod:`repro.semantics` handler as a no-op — sound for ``Log.d``, silently
wrong for an HTTP API nobody modeled.  That is the exact "missed request"
failure mode the paper's coverage argument rests on, so this family makes
it loud:

* **SEM001** (error) — an *unmodeled network-relevant* library call: the
  receiver class lives in a known HTTP/network package but no semantic
  model, demarcation point or implicit-edge rule covers the call.
* **SEM002** (info) — any other library call with no body and no model
  (the no-op treatment is usually fine; the inventory is still useful).
* **SEM003** (warning) — a demarcation point whose enclosing method no
  entry point (or framework callback) can reach via the call graph: its
  slices can never execute.
* **SEM004** (warning) — a listener-style demarcation point whose callback
  class could not be resolved: the response slice will be empty.
* **SEM005** (error) — an entry point naming a method the program does not
  define.

The pass builds its **own** call graph.  ``scan_demarcation_points`` and
``discover_callbacks`` register implicit edges and *pop* the affected
sites from ``CallGraph.library_sites``; doing that to the pipeline's
shared call graph before slicing would hide those demarcation points from
the slicer.
"""

from __future__ import annotations

from ..apk.model import Apk
from ..cfg.callgraph import CallGraph
from ..ir.program import Program
from ..ir.values import Local
from ..semantics.async_model import discover_callbacks
from ..semantics.model import SemanticModel, default_model
from ..slicing.demarcation import DemarcationRegistry, scan_demarcation_points
from ..taint.engine import NOFLOW_CALLS
from .diagnostics import Diagnostic, make_finding

#: Package prefixes whose APIs move bytes on and off the network.  A call
#: into one of these with no model and no demarcation point is a protocol
#: flow the analysis is provably blind to.
NETWORK_PREFIXES: tuple[str, ...] = (
    "org.apache.http",
    "android.net.http",
    "java.net.",
    "okhttp3.",
    "com.squareup.okhttp",
    "com.android.volley",
    "retrofit2.",
    "com.google.api.client.http",
    "com.beeframework",
)


def _is_network_class(name: str) -> bool:
    return any(
        name.startswith(p) or name == p.rstrip(".") for p in NETWORK_PREFIXES
    )


def soundness_program(
    program: Program,
    entrypoint_ids: list[str] | None = None,
    *,
    registry: DemarcationRegistry | None = None,
    model: SemanticModel | None = None,
) -> list[Diagnostic]:
    """Run the ``SEM0xx`` family over a program (plus optional entry
    points).  Builds a private call graph; never touches the pipeline's."""
    out: list[Diagnostic] = []
    entrypoint_ids = entrypoint_ids or []
    model = model or default_model()
    callgraph = CallGraph(program)
    cbinfo = discover_callbacks(program, callgraph)
    dps = scan_demarcation_points(program, callgraph, registry)
    dp_sites = {dp.site for dp in dps}

    # -- SEM005: dangling entry points -----------------------------------
    defined = {m.method_id for m in program.methods()}
    live_roots: list[str] = []
    for ep_id in entrypoint_ids:
        if ep_id in defined:
            live_roots.append(ep_id)
        else:
            out.append(
                make_finding(
                    "SEM005",
                    f"entry point {ep_id} is not defined in the program",
                    method_id=ep_id,
                )
            )

    # -- SEM001/SEM002: unmodeled library calls ---------------------------
    for ref, expr in sorted(
        callgraph.library_sites.items(),
        key=lambda kv: (kv[0].method_id, kv[0].index),
    ):
        if ref in dp_sites:
            continue  # handled by the slicer
        sig = expr.sig
        name = sig.name
        if name == "<init>":
            # Constructors of unmodeled library types build opaque objects;
            # the interpreter tracks them structurally without a handler.
            continue
        receiver = sig.class_name
        if isinstance(expr.base, Local):
            receiver = expr.base.type.name
        if (receiver, name) in NOFLOW_CALLS or (sig.class_name, name) in NOFLOW_CALLS:
            continue  # deliberately flow-free (logging, clocks, ...)
        handled = (
            model.lookup(receiver, name) is not None
            or model.lookup(sig.class_name, name) is not None
        )
        if not handled and program.has_class(receiver):
            ancestors = program.library_ancestors(receiver)
            handled = model.lookup_dispatch(ancestors, name) is not None
        if handled:
            continue
        method = program.method_by_id(ref.method_id)
        if _is_network_class(receiver) or _is_network_class(sig.class_name):
            out.append(
                make_finding(
                    "SEM001",
                    f"network call {sig.qualified_name} has no semantic model "
                    "and is not a demarcation point",
                    class_name=method.class_name,
                    method_id=ref.method_id,
                    index=ref.index,
                )
            )
        else:
            out.append(
                make_finding(
                    "SEM002",
                    f"{sig.qualified_name} has neither an app body nor a "
                    "semantic model",
                    class_name=method.class_name,
                    method_id=ref.method_id,
                    index=ref.index,
                )
            )

    # -- SEM003/SEM004: demarcation-point health --------------------------
    roots = sorted(set(live_roots) | cbinfo.callback_methods)
    reachable = callgraph.reachable_from(roots) if roots else set()
    for dp in dps:
        method = program.method_by_id(dp.site.method_id)
        if roots and dp.site.method_id not in reachable:
            out.append(
                make_finding(
                    "SEM003",
                    f"demarcation point {dp.spec.class_name}."
                    f"{dp.spec.method_name} is unreachable from any entry "
                    "point",
                    class_name=method.class_name,
                    method_id=dp.site.method_id,
                    index=dp.site.index,
                )
            )
        if dp.spec.response.startswith("listener:") and not dp.response_seeds:
            out.append(
                make_finding(
                    "SEM004",
                    f"listener-style demarcation point {dp.spec.class_name}."
                    f"{dp.spec.method_name} has no resolvable callback; the "
                    "response slice will be empty",
                    class_name=method.class_name,
                    method_id=dp.site.method_id,
                    index=dp.site.index,
                )
            )
    return out


def soundness_apk(
    apk: Apk,
    *,
    registry: DemarcationRegistry | None = None,
    model: SemanticModel | None = None,
) -> list[Diagnostic]:
    return soundness_program(
        apk.program,
        [ep.method_id for ep in apk.entrypoints],
        registry=registry,
        model=model,
    )


__all__ = ["NETWORK_PREFIXES", "soundness_apk", "soundness_program"]
