"""Exception and warning types shared across the package."""


class ConfigInvalid(ValueError):
    """Integrator or scenario configuration is unusable (e.g. non-positive dt)."""


class DegenerateBlock(ValueError):
    """A mode block is defective (p = 0) and has no eigenbasis."""


class GridInvalid(ValueError):
    """Frequency grid is empty or not strictly increasing."""


class DivergentIntegral(ValueError):
    """Requested frequency integral does not converge (eta_j + eta_k <= 0)."""


class SingularMatrix(ValueError):
    """A point's matrix in a stacked solve is singular: its LU has a zero pivot."""


class UnlabeledModes(ValueError):
    """Output named by quasi-mode labels was asked of an unlabeled decomposition."""


class LabelAmbiguous(UserWarning):
    """Symmetric-block roots coincide or miss their sum; quasi-mode labels are dropped."""


class RegimeWarning(UserWarning):
    """Parameters are outside the regime where a perturbative result is accurate."""


class AccuracyWarning(UserWarning):
    """A computed result is further from exact than its printed digits claim."""
