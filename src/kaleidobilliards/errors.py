"""Exception hierarchy shared by all modules."""


class KaleidoError(Exception):
    """Base class for library errors."""


class MassDomainError(KaleidoError):
    """A mass is non-positive or otherwise outside the physical domain."""


class InfeasibleFamilyError(KaleidoError):
    """The family recurrence left the positivity domain."""


class GeometryError(KaleidoError):
    """Degenerate or inconsistent sector geometry."""


class NonCoxeterRootsError(KaleidoError):
    """Reflection closure did not terminate at a finite Coxeter group."""


class CharacterTableError(KaleidoError):
    """Character sums failed an integrality or orthogonality check."""


class RankDeficiencyError(KaleidoError):
    """Anti-invariant states do not match the character count."""


class HemisphereError(KaleidoError):
    """Sector leaves the chart hemisphere; gnomonic flattening impossible."""


class ChartDomainError(KaleidoError):
    """Point outside the flattened triangle."""


class QuadratureError(KaleidoError):
    """Quadrature resolution too low (overlap matrix not positive-definite)."""


class EigensolverError(KaleidoError):
    """Generalized eigensolver failed to converge."""


class InsufficientLevelsError(KaleidoError):
    """Not enough converged levels for spectral statistics."""
