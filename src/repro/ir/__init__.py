"""Jimple-style intermediate representation (the Soot/Dexpler substitute).

See DESIGN.md: Extractocol runs on Jimple, so the reproduction rebuilds the
Jimple level — typed three-address code with classes, fields, virtual
dispatch, branches and loops — plus a programmatic builder, pretty-printer,
textual parser and validator.
"""
