// Synthetic learnable problems shared by the ML tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace gaugur::ml::testing {

/// Nonlinear regression target: smooth interaction of three features.
inline double Friedmanish(std::span<const double> x) {
  return 2.0 * x[0] * x[1] + 1.5 * (x[2] > 0.5 ? 1.0 : 0.0) + 0.5 * x[3];
}

inline Dataset MakeRegressionData(std::size_t n, std::uint64_t seed,
                                  double noise = 0.0) {
  common::Rng rng(seed);
  Dataset data(5);
  std::vector<double> row(5);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.Uniform();
    data.Add(row, Friedmanish(row) + rng.Gaussian(0.0, noise));
  }
  return data;
}

/// Binary labels from a nonlinear boundary (XOR-of-halves plus a margin
/// feature), not linearly separable.
inline Dataset MakeClassificationData(std::size_t n, std::uint64_t seed,
                                      double flip_prob = 0.0) {
  common::Rng rng(seed);
  Dataset data(4);
  std::vector<double> row(4);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.Uniform();
    bool label = (row[0] > 0.5) != (row[1] > 0.5);
    if (row[2] > 0.9) label = !label;
    if (rng.Bernoulli(flip_prob)) label = !label;
    data.Add(row, label ? 1.0 : 0.0);
  }
  return data;
}

/// A linearly separable problem for the SVM happy path.
inline Dataset MakeSeparableData(std::size_t n, std::uint64_t seed,
                                 double margin = 0.2) {
  common::Rng rng(seed);
  Dataset data(2);
  std::vector<double> row(2);
  for (std::size_t i = 0; i < n; ++i) {
    const bool label = rng.Bernoulli(0.5);
    const double offset = label ? margin : -margin;
    row[0] = rng.Uniform(-1.0, 1.0);
    row[1] = row[0] + offset + (label ? rng.Uniform(0.0, 1.0)
                                      : rng.Uniform(-1.0, 0.0));
    data.Add(row, label ? 1.0 : 0.0);
  }
  return data;
}

/// Tie-heavy data shaped like the CM training set. Each row's victim is one
/// of eight games whose two profile features all of its rows share; four
/// co-runner intensities take one of five levels; and the whole corpus is
/// repeated once per QoS grid point (50 and 60 FPS) with Q as feature 0.
/// Regression targets are the degradation rounded to 0.05; with
/// `classify`, the label is 1 when the degraded rate meets Q.
inline Dataset MakeTieHeavyData(std::size_t corpus_rows, std::uint64_t seed,
                                bool classify) {
  common::Rng rng(seed);
  struct Sample {
    std::vector<double> x;
    double degradation;
    double solo_fps;
  };
  std::vector<Sample> corpus(corpus_rows);
  for (auto& s : corpus) {
    const auto game = rng.UniformInt(8);
    const double profile_a = 0.125 * static_cast<double>(game);
    const double profile_b = 0.5 * static_cast<double>(game % 3);
    s.x = {profile_a, profile_b};
    double pressure = 0.0;
    for (int c = 0; c < 4; ++c) {
      const double level = 0.25 * static_cast<double>(rng.UniformInt(5));
      s.x.push_back(level);
      pressure += level * (0.1 + 0.05 * c) * (1.0 + profile_a);
    }
    const double noisy = 1.0 - 0.6 * pressure + rng.Gaussian(0.0, 0.03);
    s.degradation = std::round(std::clamp(noisy, 0.05, 1.0) * 20.0) / 20.0;
    s.solo_fps = 70.0 + 5.0 * static_cast<double>(game % 4);
  }
  Dataset data(7);
  std::vector<double> row;
  for (const double qos : {50.0, 60.0}) {
    for (const auto& s : corpus) {
      row.assign(1, qos);
      row.insert(row.end(), s.x.begin(), s.x.end());
      const double target =
          classify ? (s.solo_fps * s.degradation >= qos ? 1.0 : 0.0)
                   : s.degradation;
      data.Add(row, target);
    }
  }
  return data;
}

}  // namespace gaugur::ml::testing
