"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array or signal dimensions are inconsistent."""


class KernelSpecError(ValueError):
    """A kernel's JSON form is malformed; the message names the kernel."""


class SignatureError(ValueError):
    """A supply matrix does not have the required inertia."""


class ContractionError(ValueError):
    """A contraction hypothesis needed for simulation does not hold."""


class NumericalError(ArithmeticError):
    """A numerical routine left its validated regime."""


class ConvergenceError(RuntimeError):
    """An iteration hit its step limit before reaching tolerance."""


class DivergenceError(NumericalError):
    """A fixed-point iteration of input number lane left the float range."""

    def __init__(self, lane: int, step: int):
        super().__init__(f"fixed-point iteration of input {lane} left the "
                         f"float range at step {step}")
        self.lane, self.step = lane, step
