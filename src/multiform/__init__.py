"""Multiform calculus on Minkowski spacetime.

Cl(1,3) algebra, (1,1)-extensors and their outermorphism extensions,
differentiable multiform field expressions, gauge-covariant derivatives,
Euler-Lagrange residual operators, and a lattice realization of the
stationary-action problem, plus a CLI that runs named verification
scenarios.
"""

__version__ = "0.1.0"

from .sta import (  # noqa: F401
    ALL_GRADES,
    EVEN_GRADES,
    GAMMA,
    GAMMA_UP,
    ONE,
    PSEUDOSCALAR,
    Multivector,
    commutator_product,
)
from .extensor import (  # noqa: F401
    Extensor11,
    SingularExtensorError,
    adjoint,
    determinant,
    extend,
    gauge_star,
    invert,
)
from .fields import (  # noqa: F401
    FieldExpr,
    GradeError,
    boundary_current_flat,
    check_identity_flat,
    coordinate,
    gauss_check,
    multivector_derivative,
    position,
)
from .gauge import (  # noqa: F401
    ExtensorField,
    GaugeBackground,
    OmegaField,
    RotorField,
    check_identity_gauge,
    check_identity_spinor,
    identity_background,
    rotor_gauge,
)
from .lagrangian import (  # noqa: F401
    LagrangianSpec,
    decomposition_check,
    ele_residual_flat,
    ele_residual_gauge,
    ele_residual_spinor,
    make_builtin,
    variation,
)
from .lattice import (  # noqa: F401
    Lattice,
    LatticeField,
    SolverError,
    action_gradient,
    discrete_action,
    discrete_ele_residual,
    discretize,
    export_field,
    load_field,
    solve_maxwell,
)
