"""Adam optimizer over named parameter blocks, updating in place."""

import numpy as np

# the defaults of Kingma & Ba (2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class OptimizerError(RuntimeError):
    pass


class Adam:
    """Bias-corrected Adam. ``params`` is a name -> array dict; arrays
    are mutated in place so callers keep their references."""

    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise OptimizerError(f"non-finite gradient in parameter block {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
