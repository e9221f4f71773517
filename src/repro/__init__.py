"""repro — reproduction of SPECRUN (DAC 2024).

A cycle-level out-of-order processor simulator with runahead execution,
the SPECRUN transient-execution attack on it, and the secure-runahead
defense, all in pure Python.

Quickstart::

    from repro import assemble, Core, CoreConfig, MemoryImage
    from repro.runahead import OriginalRunahead

    image = MemoryImage()
    image.alloc_array("data", 64)
    source = "li r1, @data\\nload r2, r1, 0\\nhalt\\n"
    program = assemble(source, memory_image=image)
    core = Core(program, memory_image=image, config=CoreConfig.paper(),
                runahead=OriginalRunahead())
    stats = core.run()
    print(stats.summary())

See :mod:`repro.attack` for the SPECRUN proof of concept and
:mod:`repro.defense` for the §6 secure-runahead scheme.
"""

from ._lazy import surface

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = surface(__name__, {
    "isa.assembler": ("AssemblyError", "assemble"),
    "isa.instructions": ("Instruction", "Opcode"),
    "isa.interpreter": ("Interpreter", "run_program"),
    "isa.memory_image": ("MemoryImage",),
    "isa.program": ("Program",),
    "isa.builder": ("ProgramBuilder",),
    "memory.cache": ("CacheConfig", "SetAssociativeCache"),
    "memory.hierarchy": ("HierarchyConfig", "MemoryHierarchy"),
    "branch.btb": ("BranchTargetBuffer",),
    "branch.unit": ("BranchUnit",),
    "branch.rsb": ("ReturnStackBuffer",),
    "branch.predictors": ("make_direction_predictor",),
    "pipeline.core": ("Core",),
    "pipeline.config": ("CoreConfig", "RunaheadConfig"),
    "pipeline.stats": ("CoreStats",),
    "runahead.base": ("NoRunahead", "RunaheadController"),
    "runahead.original": ("OriginalRunahead",),
})
__all__.append("__version__")
