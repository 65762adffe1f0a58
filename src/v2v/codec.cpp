#include "v2v/codec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/angle.hpp"

namespace rups::v2v {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    check(1);
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    check(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[pos_] | (bytes_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    check(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    check(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void check(std::size_t n) const {
    if (pos_ + n > bytes_.size()) {
      throw std::invalid_argument("TrajectoryCodec: truncated input");
    }
  }
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

std::size_t state_bytes(std::size_t channels) { return (channels + 3) / 4; }

/// Largest timestamp the u32 centisecond field carries.
constexpr double kMaxCentis = 4294967295.0;

}  // namespace

std::size_t TrajectoryCodec::encoded_size(std::size_t metres,
                                          std::size_t channels) noexcept {
  constexpr std::size_t header = 4 + 2 + 4 + 8;
  const std::size_t per_metre = 2 + 4 + state_bytes(channels) + channels;
  return header + metres * per_metre;
}

std::vector<std::uint8_t> TrajectoryCodec::encode(
    const core::ContextTrajectory& trajectory) {
  return encode_tail(trajectory, trajectory.first_metre());
}

std::vector<std::uint8_t> TrajectoryCodec::encode_tail(
    const core::ContextTrajectory& trajectory, std::uint64_t since_metre) {
  const std::size_t channels = trajectory.channels();
  std::size_t start_index = 0;
  if (since_metre > trajectory.first_metre()) {
    start_index = std::min<std::size_t>(
        trajectory.size(),
        static_cast<std::size_t>(since_metre - trajectory.first_metre()));
  }
  const std::size_t metres = trajectory.size() - start_index;

  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(metres, channels));
  put_u32(out, kMagic);
  put_u16(out, static_cast<std::uint16_t>(channels));
  put_u32(out, static_cast<std::uint32_t>(metres));
  put_u64(out, trajectory.first_metre() + start_index);

  for (std::size_t i = start_index; i < trajectory.size(); ++i) {
    const core::GeoSample& geo = trajectory.geo(i);
    const core::PowerVector& pv = trajectory.power(i);
    // No non-finite value is ever converted to an integer: a non-finite
    // heading goes as 0, a time outside the u32 centisecond range is
    // clamped into it (NaN as 0), and a non-finite reading goes as missing.
    const double wrapped =
        std::isfinite(geo.heading_rad) ? util::wrap_pi(geo.heading_rad) : 0.0;
    const auto heading =
        static_cast<std::int16_t>(std::lround(wrapped * kHeadingScale));
    put_u16(out, static_cast<std::uint16_t>(heading));
    const double centis = geo.time_s * 100.0;
    put_u32(out, static_cast<std::uint32_t>(std::lround(
                     centis > 0.0 ? std::min(centis, kMaxCentis) : 0.0)));

    const auto sendable = [&pv](std::size_t c) {
      return pv.usable(c) && std::isfinite(pv.at(c));
    };
    // 2-bit channel states, 4 per byte.
    for (std::size_t base = 0; base < channels; base += 4) {
      std::uint8_t packed = 0;
      for (std::size_t k = 0; k < 4 && base + k < channels; ++k) {
        const auto state = sendable(base + k)
                               ? pv.state(base + k)
                               : core::ChannelState::kMissing;
        packed |= static_cast<std::uint8_t>(
                      static_cast<std::uint8_t>(state) & 0x3)
                  << (2 * k);
      }
      out.push_back(packed);
    }
    // RSSI bytes: dBm + 128, clamped into [0, 255].
    for (std::size_t c = 0; c < channels; ++c) {
      if (sendable(c)) {
        const double shifted = std::clamp(
            std::round(static_cast<double>(pv.at(c)) + 128.0), 0.0, 255.0);
        out.push_back(static_cast<std::uint8_t>(shifted));
      } else {
        out.push_back(0);
      }
    }
  }
  return out;
}

core::ContextTrajectory TrajectoryCodec::decode(
    const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  if (r.u32() != kMagic) {
    throw std::invalid_argument("TrajectoryCodec: bad magic");
  }
  const std::size_t channels = r.u16();
  const std::size_t metres = r.u32();
  const std::uint64_t first_metre = r.u64();
  if (channels == 0) {
    throw std::invalid_argument("TrajectoryCodec: zero channels");
  }
  // Validate BEFORE allocating: a corrupted header must not drive a huge
  // reservation (found by fuzzing: std::bad_alloc on mutated inputs).
  if (bytes.size() != encoded_size(metres, channels)) {
    throw std::invalid_argument("TrajectoryCodec: size mismatch");
  }

  core::ContextTrajectory out(channels, std::max<std::size_t>(1, metres));
  // Reproduce the sender's odometer indexing: pre-roll first_metre appends
  // is wasteful, so the capacity-bounded trajectory simply starts at the
  // sender's first metre via dummy eviction-free bookkeeping — we rebuild by
  // appending `metres` entries and rely on first_metre alignment below.
  std::vector<std::uint8_t> states(state_bytes(channels));
  for (std::size_t i = 0; i < metres; ++i) {
    core::GeoSample geo;
    const auto heading_raw = static_cast<std::int16_t>(r.u16());
    geo.heading_rad = static_cast<double>(heading_raw) / kHeadingScale;
    geo.time_s = static_cast<double>(r.u32()) / 100.0;

    for (auto& b : states) b = r.u8();
    core::PowerVector pv(channels);
    std::vector<std::uint8_t> rssi(channels);
    for (std::size_t c = 0; c < channels; ++c) rssi[c] = r.u8();
    for (std::size_t c = 0; c < channels; ++c) {
      const auto state = static_cast<core::ChannelState>(
          (states[c / 4] >> (2 * (c % 4))) & 0x3);
      if (state != core::ChannelState::kMissing) {
        pv.set(c, static_cast<float>(static_cast<double>(rssi[c]) - 128.0),
               state);
      }
    }
    out.append(geo, std::move(pv));
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("TrajectoryCodec: trailing bytes");
  }
  // Align odometer indexing with the sender's.
  out.rebase(first_metre);
  return out;
}

std::optional<TrajectoryCodec::SalvagedRegion> TrajectoryCodec::decode_region(
    const std::vector<std::uint8_t>& bytes, std::size_t valid_begin,
    std::size_t valid_end) {
  constexpr std::size_t kHeader = 4 + 2 + 4 + 8;
  if (bytes.size() < kHeader) return std::nullopt;

  // Parse the header by hand: decode()'s Reader throws on malformed input,
  // but salvage must degrade, not propagate.
  auto u16_at = [&](std::size_t p) {
    return static_cast<std::uint16_t>(bytes[p] | (bytes[p + 1] << 8));
  };
  auto u32_at = [&](std::size_t p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes[p + i]) << (8 * i);
    return v;
  };
  auto u64_at = [&](std::size_t p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes[p + i]) << (8 * i);
    return v;
  };
  if (u32_at(0) != kMagic) return std::nullopt;
  const std::size_t channels = u16_at(4);
  const std::size_t metres = u32_at(6);
  const std::uint64_t first_metre = u64_at(10);
  if (channels == 0 || metres == 0) return std::nullopt;
  if (bytes.size() != encoded_size(metres, channels)) return std::nullopt;

  const std::size_t per_metre = 2 + 4 + state_bytes(channels) + channels;
  const std::size_t data_lo = std::max(valid_begin, kHeader);
  const std::size_t data_hi = std::min(valid_end, bytes.size());
  if (data_hi <= data_lo) return std::nullopt;
  // First record fully inside the region, one past the last.
  const std::size_t r0 = (data_lo - kHeader + per_metre - 1) / per_metre;
  const std::size_t r1 = (data_hi - kHeader) / per_metre;
  if (r1 <= r0) return std::nullopt;

  // Re-frame the surviving records as a complete encoding and reuse the
  // strict decoder — the salvage path cannot drift from the normal one.
  std::vector<std::uint8_t> synthetic;
  synthetic.reserve(encoded_size(r1 - r0, channels));
  put_u32(synthetic, kMagic);
  put_u16(synthetic, static_cast<std::uint16_t>(channels));
  put_u32(synthetic, static_cast<std::uint32_t>(r1 - r0));
  put_u64(synthetic, first_metre + r0);
  synthetic.insert(synthetic.end(),
                   bytes.begin() + static_cast<long>(kHeader + r0 * per_metre),
                   bytes.begin() + static_cast<long>(kHeader + r1 * per_metre));
  return SalvagedRegion{decode(synthetic), metres};
}

}  // namespace rups::v2v
