"""Run-structure thermodynamic formalism on the binary full shift.

The library computes, end to end and with certified numerics:

* summable run-weight sequences eta_n with analytic tail control
  (:mod:`runshift.sequences`);
* the Walters-class potential they define, its explicit transfer-operator
  eigenfunction, eigenmeasure, equilibrium cylinder masses, and stochastic
  Jacobian (:mod:`runshift.potential`);
* one renormalization operator on coefficient sequences, with block and
  digit offset sets, and its fixed points: closed forms for blocks, and for
  digits a kernel integral against the maximal-entropy measure of a
  digit-restricted Cantor set, summed from that measure's self-similar
  moments (:mod:`runshift.renorm`, :mod:`runshift.cantor`);
* decay of correlations of the 0-cylinder indicator through renewal
  recursions and double tails (:mod:`runshift.decay`), cross-validated by
  an independent run-length Markov chain oracle (:mod:`runshift.oracle`).

A batch CLI (``runshift``) wires the pieces together reproducibly.
"""

__version__ = "0.1.0"

from .cantor import (
    CantorMeasure,
    DigitSystem,
    monte_carlo_integral,
    quadrature,
    quadrature_values,
    self_similarity_check,
)
from .decay import (
    RenewalSeries,
    decay_table,
    iterates_from_run,
    renewal_series,
)
from .oracle import (
    RenewalChain,
    build_chain,
    correlation,
    occupation_sweep,
    sample_paths,
)
from .potential import (
    ALL_ZEROS,
    ZERO_THEN_ONES,
    SymbolicPoint,
    check_normalization,
    eigenfunction,
    equilibrium_cylinder,
    equilibrium_normalization,
    equilibrium_table,
    inner_zeros,
    jacobian,
    lead_zeros,
    potential_value,
    zero_cylinder_mass,
)
from .renorm import (
    coeffs_from_eta,
    eta_from_coeffs,
    renorm1_apply,
    renorm1_fixed_point,
    renorm2_apply,
    renorm2_digit_indices,
    renorm2_fixed_point,
    residual,
)
from .sequences import (
    EtaSequence,
    NotSummableError,
    ToleranceError,
    decay_profile,
    inverse_design,
    make_eta,
    parse_family,
    sequence_table,
)
