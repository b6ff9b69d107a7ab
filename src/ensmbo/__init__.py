"""Ensemble-based offline model-based optimization.

Train an ensemble of proxy regressors on a static design dataset, then
optimize designs by gradient ascent where per-model gradients are fused
by a combiner: mean, min, MGDA (min-norm point of the gradient hull), or
CAGrad (conflict-averse step around the mean gradient).  The package root
exports nothing: import the submodule that holds a name.
"""

__version__ = "0.1.0"
