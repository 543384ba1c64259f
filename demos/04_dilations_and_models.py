"""Explicit dilations: the Schaffer pair and the functional model.

The Schaffer construction dilates a Gamma-contraction (S, P) to a
Gamma-isometry (W, V) with exact adjoint intertwinings; the functional
model realizes (S, P) as a compression of (M_{A + A*z}, M_z) to the model
space, and the compressed scalar X solves S = X + P X*.  Any dilation
factors through the minimal one.
"""

import numpy as np

from symbidisc import (
    adj,
    compressed_scalar,
    factorization_check,
    is_gamma_isometry,
    nf_ay_build,
    opnorm,
    random_gamma_contraction,
    schaffer_build,
)

rng = np.random.default_rng(3)
pair = random_gamma_contraction(rng)
N = 32
print(f"Input pair: dim {pair.dim}")

sp = schaffer_build(pair, N)
print(f"\nSchaffer dilation on dim {sp.V.shape[0]}:")
print("  || V* Pi - Pi P* || =", f"{opnorm(adj(sp.V) @ sp.embed - sp.embed @ adj(pair.P)):.2e}")
print("  || W* Pi - Pi S* || =", f"{opnorm(adj(sp.W) @ sp.embed - sp.embed @ adj(pair.S)):.2e}")
ok, _ = is_gamma_isometry(sp.as_pair())
print("  (W, V) is a Gamma-isometry on the interior window:", ok)

m = nf_ay_build(pair, N)
print(f"\nFunctional model: dim {m.model_space.dim}, "
      f"round-trip residuals {m.residual_S:.1e} / {m.residual_P:.1e}")
cs = compressed_scalar(m)
defect = opnorm(m.S_model - (cs.X + m.P_model @ adj(cs.X)))
print(f"  compressed scalar: || S - (X + P X*) || = {defect:.1e}, "
      f"decompressed w = {cs.decompressed_wr:.4f}")

_, iso_res, wd_res = factorization_check(pair, (sp.V, sp.embed), N)
print(f"\nFactorization of the Schaffer dilation through the minimal one:")
print(f"  isometry residual {iso_res:.1e}, well-definedness residual {wd_res:.1e}")
