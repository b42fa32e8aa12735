"""Exact symbolic flatness analysis for two-input control-affine systems.

The package exports what the `flatkit analyze | verify | prolong` commands
call, so that a program can run them in-process:

- models: `load_model`, `model_from_dict`, `save_model`, `ModelFile`,
  `build_system`, `prolonged_model`;
- systems: `ControlAffineSystem`, `prolong`;
- analyze: `run_algorithm1`, `run_algorithm2`, `extract_candidates`;
- verify: `output_jets`, `verify_flat_output`, `sfe_gtf_test`;
- errors: `FlatkitError`, the base of every error the toolkit raises, and
  `ModelFileError`, an unreadable or invalid input.

Everything else (expressions, fields, distributions, the rank engine, the
polynomial kernel) is imported from its submodule, as the tests do.

Records, `ModelFile` among them, are NamedTuples or plain classes, not
dataclasses: `dataclasses` generates each class's methods with `exec` on
every import, which cost about 15-20 ms of every start.
"""

# defined before any submodule import: cli imports it from the package
__version__ = "0.1.0"

from .algorithms import extract_candidates, run_algorithm1, run_algorithm2
from .errors import FlatkitError, ModelFileError
from .modelfile import (
    ModelFile,
    build_system,
    load_model,
    model_from_dict,
    prolonged_model,
    save_model,
)
from .system import (
    ControlAffineSystem,
    output_jets,
    prolong,
    sfe_gtf_test,
    verify_flat_output,
)

__all__ = [
    "__version__",
    "FlatkitError",
    "ModelFileError",
    "ModelFile",
    "load_model",
    "model_from_dict",
    "save_model",
    "build_system",
    "prolonged_model",
    "ControlAffineSystem",
    "prolong",
    "run_algorithm1",
    "run_algorithm2",
    "extract_candidates",
    "output_jets",
    "verify_flat_output",
    "sfe_gtf_test",
]
