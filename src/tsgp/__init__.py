"""Semantic-aware transformer variation for genetic programming.

Subpackages and modules:

- ``expr``       expression trees, prefix (de)serialization, random generation
- ``semantics``  semantic vectors, distances, RMSE, standardization
- ``stdgp``      standard GP engine (tournament / double tournament, subtree ops)
- ``slim``       additive geometric-semantic baseline (inflate / deflate)
- ``corpus``     synthetic problems, function harvesting, k-NN pair mining
- ``model``      SD-conditioned encoder-decoder transformer (train + checkpoint)
- ``sampler``    syntax-controlled offspring sampling and the transformer search
- ``bench``      datasets, multi-run orchestration, statistics, CSV reports
- ``cli``        command-line front end
- ``errors``     the data (exit 2) and numeric (exit 3) error types
"""

__version__ = "0.1.0"
