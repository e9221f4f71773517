"""Branch prediction: direction predictors, BTB, RSB, combined unit."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "base": ("DirectionPredictor", "TwoBitCounter"),
    "btb": ("BranchTargetBuffer",),
    "predictors": ("BimodalPredictor", "GSharePredictor",
                   "TwoLevelPredictor", "make_direction_predictor"),
    "rsb": ("ReturnStackBuffer",),
    "unit": ("BranchStats", "BranchUnit", "Prediction"),
})
