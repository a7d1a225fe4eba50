"""Exact counts of quiver representations over truncated power-series rings.

The package computes, in exact arithmetic, counts of (absolutely
indecomposable) quiver representations over F_q[t]/(t^alpha), fiber counts
of quiver moment maps and their jets, the normalized large-alpha limits,
and the Hall algebra of the one-arrow two-vertex quiver — and verifies
every symbolic formula against independent brute-force enumeration.
"""

from .bruteforce import (Caps, OrbitRecord, ask_counts,
                         count_absolutely_indecomposable, count_iso_classes,
                         enumerate_orbits, jet_counts, moment_fiber_count,
                         moment_theta_basis)
from .closedforms import (GLOOP_RANK3_TABLE, cyclic3_limit_A, cyclic3_limit_B,
                          gloop_A2, gloop_A3, gloop_Z, gloop_fiber,
                          kronecker_A, kronecker_Z)
from .hall import (HallFunction, all_orbit_labels, bracket, hall_coproduct,
                   hall_product, primitive_space_dim, structure_constants)
from .kacpoly import (gloop_kac_rank2, gloop_kac_rank3, gloop_rank2_recurrence,
                      gloop_rank3_recurrence, kronecker_kac_via_zeta, limit_A,
                      limit_B, limits, m_to_a, order_complex_hilbert,
                      poincare_symbolic, rank1_fiber_count, toric_kac_trees,
                      toric_kac_wyss)
from .localring import (Fq, OMatrix, ORing, gl_order, kernel_size_exponent,
                        smith_invariants, smith_normal_form)
from .qpolynomial import QPolynomial, RationalFunction
from .quiver import (Quiver, a2_quiver, betti, connected_components,
                     connected_quiver_corpus, cyclic_quiver, euler_form,
                     is_2_connected, is_connected, jordan_quiver,
                     kronecker_quiver, loop_quiver, restrict_vertices,
                     set_partitions, spanning_trees)
from .series import (TruncatedSeries, VolumeSequence, plethystic_exp,
                     plethystic_log)

__version__ = "0.1.0"
