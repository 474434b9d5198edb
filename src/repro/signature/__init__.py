"""Signature extraction: the intermediate language (Fig. 4), the
flow-sensitive builder (§3.2), regex/JSON-schema/DTD renderers and the
traffic matcher.

The package imports nothing: :mod:`.builder` depends on
:mod:`repro.semantics`, whose abstract values in turn use :mod:`.lang` —
importing the language must not drag the builder in.
"""
