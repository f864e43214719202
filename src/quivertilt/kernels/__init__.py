"""The mod-p matrix kernels: matrix product and reduced row echelon form.

There is one implementation, in pure Python (``_pure``).  ``BACKEND``
names it for reports that record which kernels ran.
"""

from __future__ import annotations

from . import _pure

BACKEND = "pure"

mat_mul = _pure.mat_mul
rref = _pure.rref

__all__ = ["BACKEND", "mat_mul", "rref", "_pure"]
