#include "core/correlation.hpp"

#include <algorithm>
#include <cmath>

namespace rups::core {

namespace {

/// Pearson over pre-gathered pairs; 0 when degenerate.
double pearson_pairs(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double num = 0.0, dx = 0.0, dy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = xs[i] - mx;
    const double b = ys[i] - my;
    num += a * b;
    dx += a * a;
    dy += b * b;
  }
  if (dx <= 0.0 || dy <= 0.0) return 0.0;
  return num / std::sqrt(dx * dy);
}

}  // namespace

double power_vector_correlation(const PowerVector& a, const PowerVector& b,
                                std::size_t min_overlap) {
  const std::size_t n = std::min(a.channels(), b.channels());
  std::vector<double> xs, ys;
  xs.reserve(n);
  ys.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    if (a.usable(c) && b.usable(c)) {
      xs.push_back(a.at(c));
      ys.push_back(b.at(c));
    }
  }
  if (xs.size() < min_overlap) return 0.0;
  return pearson_pairs(xs, ys);
}

double relative_change_linear(const PowerVector& a, const PowerVector& b) {
  const std::size_t n = std::min(a.channels(), b.channels());
  double diff_sq = 0.0, base_sq = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    if (!a.usable(c) || !b.usable(c)) continue;
    const double la = std::pow(10.0, a.at(c) / 10.0);
    const double lb = std::pow(10.0, b.at(c) / 10.0);
    diff_sq += (la - lb) * (la - lb);
    base_sq += la * la;
  }
  if (base_sq <= 0.0) return 0.0;
  return std::sqrt(diff_sq) / std::sqrt(base_sq);
}

double trajectory_correlation(const WindowRef& a, const WindowRef& b,
                              std::size_t window_m,
                              std::span<const std::size_t> channels,
                              const TrajectoryCorrelationConfig& config) {
  const ContextTrajectory& ta = *a.trajectory;
  const ContextTrajectory& tb = *b.trajectory;
  if (a.start + window_m > ta.size() || b.start + window_m > tb.size()) {
    return -2.0;
  }
  const std::size_t width = std::min(ta.channels(), tb.channels());

  // Hot path of the O(m*w*k) SYN search: one metre-outer pass accumulating
  // per-channel moment sums — no allocations, row-local memory access.
  struct Acc {
    double n = 0, sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  };
  constexpr std::size_t kStackChannels = 128;
  Acc stack_acc[kStackChannels];
  std::vector<Acc> heap_acc;
  Acc* acc = stack_acc;
  if (channels.size() > kStackChannels) {
    heap_acc.resize(channels.size());
    acc = heap_acc.data();
  } else {
    for (std::size_t k = 0; k < channels.size(); ++k) acc[k] = Acc{};
  }

  for (std::size_t i = 0; i < window_m; ++i) {
    const PowerVector& pa = ta.power(a.start + i);
    const PowerVector& pb = tb.power(b.start + i);
    for (std::size_t k = 0; k < channels.size(); ++k) {
      const std::size_t c = channels[k];
      if (c >= width || !pa.usable(c) || !pb.usable(c)) continue;
      const double x = pa.at(c);
      const double y = pb.at(c);
      Acc& s = acc[k];
      s.n += 1.0;
      s.sx += x;
      s.sy += y;
      s.sxx += x * x;
      s.syy += y * y;
      s.sxy += x * y;
    }
  }

  double channel_corr_sum = 0.0;
  std::size_t channels_used = 0;
  // Profile (per-channel mean) correlation accumulated the same way.
  Acc profile;
  for (std::size_t k = 0; k < channels.size(); ++k) {
    const Acc& s = acc[k];
    if (s.n < static_cast<double>(config.min_channel_overlap)) continue;
    const double vx = s.sxx - s.sx * s.sx / s.n;
    const double vy = s.syy - s.sy * s.sy / s.n;
    const double cov = s.sxy - s.sx * s.sy / s.n;
    // Same variance guard and clamp as the packed float kernel: a
    // (near-)constant channel carries no alignment information and residues
    // below ~1e-2 dB^2 are rounding noise, so the channel counts with zero
    // correlation; the clamp bounds cancellation-induced excursions so the
    // per-channel term stays a true Pearson coefficient. Keeping reference
    // and kernel semantics identical means they agree to float precision.
    if (vx > 1e-2 && vy > 1e-2) {
      channel_corr_sum += std::clamp(cov / std::sqrt(vx * vy), -1.0, 1.0);
    }
    ++channels_used;
    const double ma = s.sx / s.n;
    const double mb = s.sy / s.n;
    profile.n += 1.0;
    profile.sx += ma;
    profile.sy += mb;
    profile.sxx += ma * ma;
    profile.syy += mb * mb;
    profile.sxy += ma * mb;
  }

  if (channels_used < config.min_channels) return -2.0;
  const double per_channel =
      channel_corr_sum / static_cast<double>(channels_used);
  double profile_corr = 0.0;
  if (profile.n >= 2.0) {
    const double vx = profile.sxx - profile.sx * profile.sx / profile.n;
    const double vy = profile.syy - profile.sy * profile.sy / profile.n;
    const double cov = profile.sxy - profile.sx * profile.sy / profile.n;
    if (vx > 0.0 && vy > 0.0) {
      profile_corr = std::clamp(cov / std::sqrt(vx * vy), -1.0, 1.0);
    }
  }
  return per_channel + profile_corr;
}

}  // namespace rups::core
