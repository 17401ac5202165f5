"""Low-level table kernels: a vectorized numpy core and a pure-Python reference.

The heavy inner loops of the workbench (Cayley-table closure, bulk
commutators, associativity sweeps, row reduction mod p) live here.  The
package binds the numpy backend.  ``pybackend`` is the reference that the
differential tests compare against; ``perfbench/run.py --trace 1`` times
``closure`` and ``validate_table`` through both.
"""

from . import npbackend, pybackend
from .npbackend import (bulk_mult, closure, commutators, conjugates,
                        inverse_table, is_homomorphism, powers, rref_mod_p,
                        validate_table)

__all__ = [
    "npbackend",
    "pybackend",
    "validate_table",
    "inverse_table",
    "closure",
    "bulk_mult",
    "commutators",
    "powers",
    "conjugates",
    "is_homomorphism",
    "rref_mod_p",
]
