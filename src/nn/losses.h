#ifndef RPAS_NN_LOSSES_H_
#define RPAS_NN_LOSSES_H_

#include <vector>

#include "autodiff/tape.h"

namespace rpas::nn {

using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;

/// Mean squared error between prediction and target (same shape); 1x1.
Var MseLoss(Tape* tape, Var pred, Var target);

/// Gaussian negative log-likelihood, averaged over elements.
/// `mu` and `sigma` have the same shape as `target`; sigma must already be
/// positive (apply Softplus upstream). (Paper §III-B: NLL "enables direct
/// computation of the likelihood of a given point".)
Var GaussianNllLoss(Tape* tape, Var mu, Var sigma, Var target);

/// Location-scale Student-t negative log-likelihood with fixed degrees of
/// freedom `dof`, averaged over elements. The paper selects Student-t for
/// the DeepAR head because its heavier tails absorb workload outliers.
/// Built from tape primitives: NLL = const(dof) + log(sigma)
///   + (dof+1)/2 * log(1 + z^2/dof), z = (target-mu)/sigma.
Var StudentTNllLoss(Tape* tape, Var mu, Var sigma, Var target, double dof);

/// The additive constants of the two NLLs above: 0.5 * log(2 pi), and
/// -lgamma((dof+1)/2) + lgamma(dof/2) + 0.5 * log(dof pi). Shared with
/// DeepAR's fused training unroll, which must add the same bits.
double GaussianNllConstant();
double StudentTNllConstant(double dof);

/// Joint pinball loss over a pre-specified quantile grid (paper Eq. 1-2).
/// `pred` is N x Q (one column per level in `taus`); `target` is N x 1.
/// Returns the loss summed over quantiles, averaged over rows.
Var QuantileGridLoss(Tape* tape, Var pred, Var target,
                     const std::vector<double>& taus);

}  // namespace rpas::nn

#endif  // RPAS_NN_LOSSES_H_
