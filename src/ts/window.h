#ifndef RPAS_TS_WINDOW_H_
#define RPAS_TS_WINDOW_H_

#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"
#include "ts/time_series.h"

namespace rpas::ts {

/// One (context, target) training window: context has `context_length`
/// points ending at split-1, target the following `horizon` points.
struct Window {
  size_t begin = 0;  ///< absolute index of the first context point
  std::vector<double> context;
  std::vector<double> target;
};

/// Sliding-window supervised dataset over a series (paper Definition 1:
/// context length T, forecast horizon H).
class WindowDataset {
 public:
  /// Enumerates all windows with the given stride. Requires
  /// context_length + horizon <= series.size() for a non-empty dataset.
  /// `index_offset` is the absolute position of series element 0 and is
  /// added to every Window::begin — pass it when `series` is a suffix slice
  /// so that calendar-phase features computed from `begin` stay aligned.
  WindowDataset(const TimeSeries& series, size_t context_length,
                size_t horizon, size_t stride = 1, size_t index_offset = 0);

  size_t size() const { return windows_.size(); }
  bool empty() const { return windows_.empty(); }
  const Window& operator[](size_t i) const { return windows_[i]; }

  size_t context_length() const { return context_length_; }
  size_t horizon() const { return horizon_; }

  /// Stacks all contexts into an N x T matrix.
  tensor::Matrix ContextMatrix() const;
  /// Stacks all targets into an N x H matrix.
  tensor::Matrix TargetMatrix() const;

  /// Selects `count` window indices uniformly without replacement
  /// (or all of them when count >= size()).
  std::vector<size_t> SampleIndices(size_t count, Rng* rng) const;
  /// The same draw into `out`, reusing its capacity: a caller that keeps
  /// `out` across calls samples without allocating.
  void SampleIndices(size_t count, Rng* rng, std::vector<size_t>* out) const;

  /// Builds batch matrices (contexts: B x T, targets: B x H) for the given
  /// window indices.
  void Batch(const std::vector<size_t>& indices, tensor::Matrix* contexts,
             tensor::Matrix* targets) const;

 private:
  std::vector<Window> windows_;
  size_t context_length_;
  size_t horizon_;
};

}  // namespace rpas::ts

#endif  // RPAS_TS_WINDOW_H_
