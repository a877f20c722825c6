"""MTJ-based stochastic-computing Bayesian inference simulator.

Layers, bottom to top: device (the MTJ switching law, calibration and
process variation), sbg (generator arrays with energy accounting), stochastic
(SCC from bit-overlap counts), logic (gate DAGs and conflict analysis),
allocator (generator sharing over a switch matrix), fusion (grid target
locating with an exact Bayesian oracle), experiments (measurement protocols),
cost (architecture-level comparisons), cli (orchestration).  The package
re-exports nothing: import the layer you use, as in `from spinsc import fusion`.
"""

__version__ = "0.1.0"
