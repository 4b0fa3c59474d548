"""voxpick: voxel-grid pick-and-place trajectory planning and guidance-mask
rendering.

Pipeline: scene -> occupancy grid -> exact distance field -> three-stage A*
-> first-order trajectory refinement -> velocity-profiled time reallocation
-> per-frame sphere projection masks. The rest of the API lives in the
submodules (``voxpick.scene``, ``voxpick.projection``, ...).
"""

from .errors import VoxpickError
from .pipeline import RunBundle, Scenario, load_scenario, run, save_scenario, write_bundle

__version__ = "0.1.0"

__all__ = [
    "RunBundle",
    "Scenario",
    "VoxpickError",
    "load_scenario",
    "run",
    "save_scenario",
    "write_bundle",
]
