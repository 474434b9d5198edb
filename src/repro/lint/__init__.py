"""repro.lint — whole-program IR typechecker + pipeline-soundness lints.

Three pass families over a :class:`~repro.ir.program.Program` (DESIGN.md
"Static checking"):

* ``IR0xx`` — structural well-formedness and a class-hierarchy-aware
  typechecker (:mod:`.typecheck`), subsuming :mod:`repro.ir.validate`;
* ``DF0xx`` — CFG dataflow lints: definite assignment, unreachable code,
  dead stores (:mod:`.dataflow`);
* ``SEM0xx`` — pipeline-soundness lints: unmodeled library calls,
  unreachable/unresolvable demarcation points, dangling entry points
  (:mod:`.soundness`);

plus the post-analysis ``SIG0xx`` signature lints (:mod:`.signature`).
Entry points: :func:`lint_apk` / :func:`lint_program`; the CLI verb is
``repro lint``; the pipeline gate is ``AnalysisConfig.lint_level``.
"""
