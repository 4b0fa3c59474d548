"""Exception types shared across the planning pipeline.

Every error carries a pipeline stage name and a short machine-readable
code so the CLI can print ``error:<stage>:<code>`` lines and map
failures to distinct exit codes.
"""


class VoxpickError(Exception):
    stage = "pipeline"
    code = "error"
    exit_code = 1

    def cli_line(self) -> str:
        return f"error:{self.stage}:{self.code}: {self}"


class ParseError(VoxpickError):
    stage = "parse"
    code = "parse"
    exit_code = 2


class KeypointOccupied(VoxpickError):
    stage = "scene"
    code = "keypoint-occupied"
    exit_code = 2


class OutOfBounds(VoxpickError):
    stage = "scene"
    code = "out-of-bounds"
    exit_code = 2


class NoPath(VoxpickError):
    stage = "plan"
    code = "no-path"
    exit_code = 3


class NonFiniteLoss(VoxpickError):
    stage = "optimize"
    code = "non-finite"
    exit_code = 4

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class InsufficientFrames(VoxpickError):
    stage = "time-alloc"
    code = "insufficient-frames"
    exit_code = 2


class DegeneratePath(VoxpickError):
    stage = "time-alloc"
    code = "degenerate-path"
    exit_code = 2


class CannotWrite(VoxpickError):
    stage = "write"
    code = "cannot-write"
    exit_code = 2


class CorruptBundle(VoxpickError):
    stage = "report"
    code = "corrupt-bundle"
    exit_code = 2


class OracleMismatch(VoxpickError):
    stage = "check"
    code = "oracle-mismatch"
    exit_code = 6
