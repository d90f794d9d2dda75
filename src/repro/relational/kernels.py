"""The trie-primitive implementation name, for environment stamps.

The code-space primitives themselves live in
:mod:`repro.relational.columnar` (:class:`~repro.relational.columnar.CodeTrie`,
:func:`~repro.relational.columnar.sorted_lookup`,
:func:`~repro.relational.columnar.composite_codes`).
"""

from __future__ import annotations

__all__ = ["active_mode"]


def active_mode() -> str:
    """The trie-kernel implementation: always ``"python"`` (NumPy).

    Kept for the environment stamp of ``perfbench/``, which records it.
    """
    return "python"
