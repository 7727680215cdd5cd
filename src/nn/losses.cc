#include "nn/losses.h"

#include <cmath>

#include "common/logging.h"

namespace rpas::nn {

Var MseLoss(Tape* tape, Var pred, Var target) {
  return tape->Mean(tape->Square(tape->Sub(pred, target)));
}

double GaussianNllConstant() { return 0.5 * std::log(2.0 * M_PI); }

double StudentTNllConstant(double dof) {
  RPAS_CHECK(dof > 0.0) << "StudentT dof must be positive";
  return -std::lgamma((dof + 1.0) / 2.0) + std::lgamma(dof / 2.0) +
         0.5 * std::log(dof * M_PI);
}

Var GaussianNllLoss(Tape* tape, Var mu, Var sigma, Var target) {
  // 0.5*log(2*pi) + log(sigma) + (y-mu)^2 / (2*sigma^2)
  Var z = tape->Div(tape->Sub(target, mu), sigma);
  Var nll = tape->Add(tape->Log(sigma), tape->Scale(tape->Square(z), 0.5));
  nll = tape->AddScalar(nll, GaussianNllConstant());
  return tape->Mean(nll);
}

Var StudentTNllLoss(Tape* tape, Var mu, Var sigma, Var target, double dof) {
  const double constant = StudentTNllConstant(dof);
  Var z = tape->Div(tape->Sub(target, mu), sigma);
  // log(1 + z^2/dof)
  Var log_term =
      tape->Log(tape->AddScalar(tape->Scale(tape->Square(z), 1.0 / dof), 1.0));
  Var nll = tape->Add(tape->Log(sigma),
                      tape->Scale(log_term, (dof + 1.0) / 2.0));
  nll = tape->AddScalar(nll, constant);
  return tape->Mean(nll);
}

Var QuantileGridLoss(Tape* tape, Var pred, Var target,
                     const std::vector<double>& taus) {
  RPAS_CHECK(pred.cols() == taus.size())
      << "prediction columns must match quantile grid";
  RPAS_CHECK(target.cols() == 1 && target.rows() == pred.rows())
      << "target must be N x 1 aligned with pred";

  // Tile the target across Q columns (constant — no gradient flows to it).
  // Arena-backed Input leaves keep the per-step loss build allocation-free.
  const Matrix& tv = target.value();
  Var y = tape->Input(tv.rows(), taus.size());
  Matrix& tiled = *tape->MutableValue(y);
  for (size_t r = 0; r < tv.rows(); ++r) {
    for (size_t q = 0; q < taus.size(); ++q) {
      tiled(r, q) = tv(r, 0);
    }
  }

  // rho_tau(y, yhat) = max(tau * (y - yhat), (tau - 1) * (y - yhat)).
  Var diff = tape->Sub(y, pred);
  Var tau_row = tape->Input(1, taus.size());
  Var tau_m1_row = tape->Input(1, taus.size());
  for (size_t q = 0; q < taus.size(); ++q) {
    (*tape->MutableValue(tau_row))(0, q) = taus[q];
    (*tape->MutableValue(tau_m1_row))(0, q) = taus[q] - 1.0;
  }
  Var upper = tape->MulRowBroadcast(diff, tau_row);
  Var lower = tape->MulRowBroadcast(diff, tau_m1_row);
  Var pinball = tape->Max(upper, lower);
  // Sum over quantiles, average over rows.
  return tape->Scale(tape->Sum(pinball),
                     1.0 / static_cast<double>(pred.rows()));
}

}  // namespace rpas::nn
