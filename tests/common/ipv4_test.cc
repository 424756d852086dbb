#include "common/ipv4.h"

#include <gtest/gtest.h>

namespace dmap {
namespace {

TEST(Ipv4AddressTest, OctetConstruction) {
  const auto addr = Ipv4Address::FromOctets(192, 168, 1, 20);
  EXPECT_EQ(addr.value(), 0xc0a80114u);
  EXPECT_EQ(addr.ToString(), "192.168.1.20");
}

TEST(Ipv4AddressTest, ParseValid) {
  Ipv4Address addr;
  ASSERT_TRUE(Ipv4Address::Parse("8.8.8.8", &addr));
  EXPECT_EQ(addr, Ipv4Address::FromOctets(8, 8, 8, 8));
  ASSERT_TRUE(Ipv4Address::Parse("0.0.0.0", &addr));
  EXPECT_EQ(addr.value(), 0u);
  ASSERT_TRUE(Ipv4Address::Parse("255.255.255.255", &addr));
  EXPECT_EQ(addr.value(), 0xffffffffu);
}

TEST(Ipv4AddressTest, ParseInvalid) {
  Ipv4Address addr;
  EXPECT_FALSE(Ipv4Address::Parse("", &addr));
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3", &addr));
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5", &addr));
  EXPECT_FALSE(Ipv4Address::Parse("256.1.1.1", &addr));
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4 ", &addr));
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d", &addr));
  EXPECT_FALSE(Ipv4Address::Parse("1..2.3", &addr));
}

TEST(IpDistanceTest, MatchesAbsoluteDifference) {
  // The code uses the absolute integer difference on purpose; the paper's
  // bitwise-weighted sum |A_i - B_i| 2^i is A XOR B, a different metric
  // (DESIGN.md records the deviation).
  const Ipv4Address a(100), b(300);
  EXPECT_EQ(IpDistance(a, b), 200u);
  EXPECT_EQ(IpDistance(b, a), 200u);
  EXPECT_EQ(IpDistance(a, a), 0u);
  // No overflow at the extremes.
  EXPECT_EQ(IpDistance(Ipv4Address(0), Ipv4Address(0xffffffff)),
            0xffffffffull);
  // Where the two metrics part: for A=2, B=1 the XOR reading gives 3, the
  // numeric distance the code computes gives 1.
  EXPECT_EQ(IpDistance(Ipv4Address(2), Ipv4Address(1)), 1u);
}

TEST(CidrTest, CanonicalisesBase) {
  const Cidr c(Ipv4Address::FromOctets(10, 1, 2, 3), 16);
  EXPECT_EQ(c.base(), Ipv4Address::FromOctets(10, 1, 0, 0));
  EXPECT_EQ(c.ToString(), "10.1.0.0/16");
}

TEST(CidrTest, ContainsBoundaries) {
  const Cidr c(Ipv4Address::FromOctets(10, 1, 0, 0), 16);
  EXPECT_TRUE(c.Contains(c.First()));
  EXPECT_TRUE(c.Contains(c.Last()));
  EXPECT_TRUE(c.Contains(Ipv4Address::FromOctets(10, 1, 200, 7)));
  EXPECT_FALSE(c.Contains(Ipv4Address::FromOctets(10, 2, 0, 0)));
  EXPECT_FALSE(c.Contains(Ipv4Address::FromOctets(10, 0, 255, 255)));
}

TEST(CidrTest, SlashZeroCoversEverything) {
  const Cidr all(Ipv4Address(12345), 0);
  EXPECT_EQ(all.Size(), 1ull << 32);
  EXPECT_TRUE(all.Contains(Ipv4Address(0)));
  EXPECT_TRUE(all.Contains(Ipv4Address(0xffffffff)));
  EXPECT_EQ(all.base().value(), 0u);
}

TEST(CidrTest, SlashThirtyTwoIsSingleAddress) {
  const Cidr host(Ipv4Address::FromOctets(1, 2, 3, 4), 32);
  EXPECT_EQ(host.Size(), 1u);
  EXPECT_EQ(host.First(), host.Last());
  EXPECT_TRUE(host.Contains(Ipv4Address::FromOctets(1, 2, 3, 4)));
  EXPECT_FALSE(host.Contains(Ipv4Address::FromOctets(1, 2, 3, 5)));
}

TEST(CidrTest, DistanceToAddress) {
  const Cidr c(Ipv4Address(1000), 24);  // canonicalises to 768..1023
  EXPECT_EQ(c.DistanceTo(Ipv4Address(800)), 0u);   // inside
  EXPECT_EQ(c.DistanceTo(Ipv4Address(700)), 68u);  // below: 768 - 700
  EXPECT_EQ(c.DistanceTo(Ipv4Address(1100)), 77u); // above: 1100 - 1023
}

TEST(CidrTest, ParseRoundTrip) {
  Cidr c;
  ASSERT_TRUE(Cidr::Parse("67.10.0.0/16", &c));
  EXPECT_EQ(c, Cidr(Ipv4Address::FromOctets(67, 10, 0, 0), 16));
  ASSERT_TRUE(Cidr::Parse("8.0.0.0/8", &c));
  EXPECT_EQ(c.Size(), 1ull << 24);
  EXPECT_EQ(c.ToString(), "8.0.0.0/8");
}

TEST(CidrTest, ParseInvalid) {
  Cidr c;
  EXPECT_FALSE(Cidr::Parse("", &c));
  EXPECT_FALSE(Cidr::Parse("1.2.3.4", &c));       // no slash
  EXPECT_FALSE(Cidr::Parse("1.2.3.4/33", &c));    // bad length
  EXPECT_FALSE(Cidr::Parse("1.2.3.4/-1", &c));
  EXPECT_FALSE(Cidr::Parse("1.2.3/8", &c));
  EXPECT_FALSE(Cidr::Parse("1.2.3.4/8x", &c));
}

}  // namespace
}  // namespace dmap
