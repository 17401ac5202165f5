"""Low-level table kernels: a vectorized numpy core and a pure-Python reference.

The heavy inner loops of the workbench (Cayley-table closure, bulk
commutators, associativity sweeps, row reduction mod p) live here.  The
package binds the numpy backend.  ``pybackend`` is the reference that the
differential tests compare against; ``perfbench/run.py --trace 1`` times
``closure`` and ``validate_table`` through both.

``rref_mod_p`` packs each row into one Python int and eliminates with
big-int operations, exactly at any p.  It reduces whole rows and returns the
unique reduced echelon form of their span, so it takes no ``ncols``.
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
