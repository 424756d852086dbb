// IPv4 addresses and CIDR prefixes. DMap hashes GUIDs onto the 32-bit IPv4
// space and stores each mapping at the AS announcing the covering prefix, so
// these types sit at the heart of both the bgp and core modules.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace dmap {

class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t value) : value_(value) {}

  static constexpr Ipv4Address FromOctets(std::uint8_t a, std::uint8_t b,
                                          std::uint8_t c, std::uint8_t d) {
    return Ipv4Address((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
                       (std::uint32_t(c) << 8) | std::uint32_t(d));
  }

  // Parses dotted-quad notation ("a.b.c.d"). Returns false on malformed
  // input.
  static bool Parse(const std::string& text, Ipv4Address* out);

  constexpr std::uint32_t value() const { return value_; }

  std::string ToString() const;

  friend constexpr auto operator<=>(const Ipv4Address&,
                                    const Ipv4Address&) = default;

 private:
  std::uint32_t value_ = 0;
};

// IP distance for the deputy rule (Section III-B). The paper writes, for
// k-bit addresses A and B,
//   IPdist(A, B) = sum_i |A_i - B_i| * 2^i
// where A_i is the i-th bit. Read bit by bit, that sum is A XOR B — it is
// NOT |A - B| (A=2, B=1: the sum is 3, |A - B| is 1). This function
// deliberately computes |A - B| over the unsigned integers, the numeric
// distance along the address line; DESIGN.md records this as a deviation
// from the literal formula.
constexpr std::uint64_t IpDistance(Ipv4Address a, Ipv4Address b) {
  const std::uint32_t x = a.value();
  const std::uint32_t y = b.value();
  return x >= y ? std::uint64_t(x) - y : std::uint64_t(y) - x;
}

// A CIDR prefix: the high `length` bits of `base` identify an address block.
class Cidr {
 public:
  constexpr Cidr() = default;
  // `base` is canonicalised: bits below the prefix length are cleared.
  constexpr Cidr(Ipv4Address base, int length)
      : base_(Ipv4Address(length == 0 ? 0 : (base.value() & Mask(length)))),
        length_(length) {}

  static bool Parse(const std::string& text, Cidr* out);

  constexpr Ipv4Address base() const { return base_; }
  constexpr int length() const { return length_; }

  constexpr bool Contains(Ipv4Address addr) const {
    if (length_ == 0) return true;
    return (addr.value() & Mask(length_)) == base_.value();
  }

  // Number of addresses covered: 2^(32 - length). Fits in 64 bits even for
  // /0.
  constexpr std::uint64_t Size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  constexpr Ipv4Address First() const { return base_; }
  constexpr Ipv4Address Last() const {
    return Ipv4Address(base_.value() +
                       static_cast<std::uint32_t>(Size() - 1));
  }

  // Minimum IP distance from `addr` to any address inside this block
  // (0 when contained) — used by the deputy-AS fallback of Algorithm 1.
  constexpr std::uint64_t DistanceTo(Ipv4Address addr) const {
    if (Contains(addr)) return 0;
    if (addr.value() < base_.value()) return IpDistance(addr, First());
    return IpDistance(addr, Last());
  }

  std::string ToString() const;

  friend constexpr auto operator<=>(const Cidr&, const Cidr&) = default;

 private:
  static constexpr std::uint32_t Mask(int length) {
    return length == 0 ? 0 : ~std::uint32_t{0} << (32 - length);
  }

  Ipv4Address base_{};
  int length_ = 0;
};

}  // namespace dmap
