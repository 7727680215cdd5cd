#include "ts/window.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace rpas::ts {

WindowDataset::WindowDataset(const TimeSeries& series, size_t context_length,
                             size_t horizon, size_t stride,
                             size_t index_offset)
    : context_length_(context_length), horizon_(horizon) {
  RPAS_CHECK(context_length > 0 && horizon > 0 && stride > 0);
  if (series.size() < context_length + horizon) {
    return;  // empty dataset
  }
  const size_t last_begin = series.size() - context_length - horizon;
  for (size_t begin = 0; begin <= last_begin; begin += stride) {
    Window w;
    w.begin = index_offset + begin;
    w.context.assign(
        series.values.begin() + static_cast<long>(begin),
        series.values.begin() + static_cast<long>(begin + context_length));
    w.target.assign(series.values.begin() +
                        static_cast<long>(begin + context_length),
                    series.values.begin() + static_cast<long>(
                                                begin + context_length +
                                                horizon));
    windows_.push_back(std::move(w));
  }
}

tensor::Matrix WindowDataset::ContextMatrix() const {
  tensor::Matrix m(windows_.size(), context_length_);
  for (size_t i = 0; i < windows_.size(); ++i) {
    for (size_t j = 0; j < context_length_; ++j) {
      m(i, j) = windows_[i].context[j];
    }
  }
  return m;
}

tensor::Matrix WindowDataset::TargetMatrix() const {
  tensor::Matrix m(windows_.size(), horizon_);
  for (size_t i = 0; i < windows_.size(); ++i) {
    for (size_t j = 0; j < horizon_; ++j) {
      m(i, j) = windows_[i].target[j];
    }
  }
  return m;
}

std::vector<size_t> WindowDataset::SampleIndices(size_t count,
                                                 Rng* rng) const {
  std::vector<size_t> indices;
  SampleIndices(count, rng, &indices);
  return indices;
}

void WindowDataset::SampleIndices(size_t count, Rng* rng,
                                  std::vector<size_t>* out) const {
  std::vector<size_t>& indices = *out;
  indices.resize(windows_.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  if (count >= indices.size()) {
    return;
  }
  // Partial Fisher–Yates.
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng->UniformInt(indices.size() - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
}

void WindowDataset::Batch(const std::vector<size_t>& indices,
                          tensor::Matrix* contexts,
                          tensor::Matrix* targets) const {
  RPAS_CHECK(contexts != nullptr && targets != nullptr);
  *contexts = tensor::Matrix(indices.size(), context_length_);
  *targets = tensor::Matrix(indices.size(), horizon_);
  for (size_t i = 0; i < indices.size(); ++i) {
    RPAS_CHECK(indices[i] < windows_.size()) << "window index out of range";
    const Window& w = windows_[indices[i]];
    for (size_t j = 0; j < context_length_; ++j) {
      (*contexts)(i, j) = w.context[j];
    }
    for (size_t j = 0; j < horizon_; ++j) {
      (*targets)(i, j) = w.target[j];
    }
  }
}

}  // namespace rpas::ts
