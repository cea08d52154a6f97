// PunctuationCombiner: the one rule turning claims made on N ports
// into claims about the merged stream. One test per bullet of the
// rule (watermark minimum, owner-pinned patterns, held patterns,
// retirement), the held-set backstop, and the snapshot codec: a
// byte-exact Write/Read round trip and a reader that rejects a wrong
// port count and a forged held-claim count.

#include "ops/punctuation_combiner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ops/shard_routing.h"
#include "recovery/snapshot.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::P;

using Claims = std::vector<PunctPattern>;

Claims Patterns(const std::vector<Punctuation>& claims) {
  Claims patterns;
  for (const Punctuation& p : claims) patterns.push_back(p.pattern());
  return patterns;
}

/// Feed `pattern` on `port` and return the claims that now hold.
Claims Add(PunctuationCombiner* c, int port, std::string_view pattern) {
  return Patterns(c->Add(port, Punctuation(P(pattern))));
}

Claims Retire(PunctuationCombiner* c, int port) {
  return Patterns(c->Retire(port));
}

TEST(PunctuationCombiner, WatermarkIsTheMinimumOverPortsEmittedWhenItRises) {
  PunctuationCombiner c(3);
  EXPECT_EQ(Add(&c, 0, "[*,<=10,*]"), Claims{});
  EXPECT_EQ(Add(&c, 1, "[*,<=20,*]"), Claims{});
  EXPECT_EQ(Add(&c, 2, "[*,<=15,*]"), Claims{P("[*,<=10,*]")});
  // A repeated or lower bound from a port neither lowers its own
  // watermark nor re-emits.
  EXPECT_EQ(Add(&c, 0, "[*,<=10,*]"), Claims{});
  EXPECT_EQ(Add(&c, 0, "[*,<=5,*]"), Claims{});
  EXPECT_EQ(Add(&c, 0, "[*,<=30,*]"), Claims{P("[*,<=15,*]")});
  EXPECT_EQ(Add(&c, 1, "[*,<=30,*]"), Claims{});
  EXPECT_EQ(Add(&c, 2, "[*,<=25,*]"), Claims{P("[*,<=25,*]")});
}

TEST(PunctuationCombiner, WatermarkOnAnotherAttributeIsIgnored) {
  PunctuationCombiner c(2);
  EXPECT_EQ(Add(&c, 0, "[*,<=10,*]"), Claims{});
  // Port 1 bounds attribute 0 first: the ports never agree, so no
  // watermark is combined, and port 1 keeps its first attribute.
  EXPECT_EQ(Add(&c, 1, "[<=50,*,*]"), Claims{});
  EXPECT_EQ(Add(&c, 1, "[*,<=50,*]"), Claims{});
  // Retiring port 1 leaves port 0 alone, whose bound then holds.
  EXPECT_EQ(Retire(&c, 1), Claims{P("[*,<=10,*]")});
}

TEST(PunctuationCombiner, TiedBoundsPassOnTheNarrowerClaim) {
  PunctuationCombiner c(2);
  EXPECT_EQ(Add(&c, 0, "[*,<=10,*]"), Claims{});
  EXPECT_EQ(Add(&c, 1, "[*,<10,*]"), Claims{P("[*,<10,*]")});
}

TEST(PunctuationCombiner, KeyPinnedClaimSettlesFromItsOwnerAlone) {
  PunctuationCombiner c(4, {0});
  Tuple probe = TupleBuilder().I64(5).Ts(0).I64(0).Build();
  const int owner = ShardOfRoutingHash(ShardRoutingHash(probe, {0}), 4);
  const int other = (owner + 1) % 4;
  EXPECT_EQ(Add(&c, other, "[5,*,*]"), Claims{});
  EXPECT_EQ(c.dropped_vacuous(), 1u);
  EXPECT_EQ(Add(&c, owner, "[5,*,*]"), Claims{P("[5,*,*]")});
  EXPECT_EQ(c.owner_routed(), 1u);
  EXPECT_EQ(c.held(), 0u);
  // Without partition keys the same pattern is an ordinary held claim.
  PunctuationCombiner plain(2);
  EXPECT_EQ(Add(&plain, 0, "[5,*,*]"), Claims{});
  EXPECT_EQ(plain.held(), 1u);
  EXPECT_EQ(Add(&plain, 1, "[5,*,*]"), Claims{P("[5,*,*]")});
}

TEST(PunctuationCombiner, OtherPatternsWaitForEveryPortOrAWiderClaim) {
  PunctuationCombiner c(3);
  EXPECT_EQ(Add(&c, 0, "[>=100,*,*]"), Claims{});
  EXPECT_EQ(Add(&c, 0, "[>=100,*,*]"), Claims{});  // a duplicate
  EXPECT_EQ(c.held(), 1u);
  EXPECT_EQ(Add(&c, 1, "[>=100,*,*]"), Claims{});
  // Port 2 makes a wider claim: it implies the held one, which now
  // holds everywhere. The wider claim itself is held in turn.
  EXPECT_EQ(Add(&c, 2, "[>=50,*,*]"), Claims{P("[>=100,*,*]")});
  EXPECT_EQ(c.coalesced(), 1u);
  EXPECT_EQ(c.held(), 1u);
  // A watermark can cover a held claim too.
  EXPECT_EQ(Add(&c, 0, "[*,=7,*]"), Claims{});
  EXPECT_EQ(c.held(), 2u);
  EXPECT_EQ(Add(&c, 1, "[*,<=9,*]"), Claims{});
  EXPECT_EQ(Add(&c, 2, "[*,<=8,*]"), Claims{P("[*,=7,*]")});
  EXPECT_EQ(c.held(), 1u);
}

TEST(PunctuationCombiner, RetiredPortCountsAsHavingMadeEveryClaim) {
  PunctuationCombiner c(3);
  EXPECT_EQ(Add(&c, 0, "[>=100,*,*]"), Claims{});
  EXPECT_EQ(Add(&c, 0, "[*,<=40,*]"), Claims{});
  EXPECT_EQ(Add(&c, 1, "[*,<=20,*]"), Claims{});
  EXPECT_EQ(Add(&c, 1, "[>=100,*,*]"), Claims{});
  // Port 2 never claimed anything; at its retirement both claims hold.
  EXPECT_EQ(Retire(&c, 2), (Claims{P("[>=100,*,*]"), P("[*,<=20,*]")}));
  EXPECT_EQ(Retire(&c, 2), Claims{});  // retiring twice is a no-op
  EXPECT_EQ(c.live_ports(), 2);
  // A retired port no longer holds the watermark back.
  EXPECT_EQ(Retire(&c, 1), Claims{P("[*,<=40,*]")});
  // Claims from a retired port are ignored.
  EXPECT_EQ(Add(&c, 1, "[*,<=90,*]"), Claims{});
  EXPECT_EQ(Add(&c, 0, "[=3,*,*]"), Claims{P("[=3,*,*]")});
}

TEST(PunctuationCombiner, RetiringTheLastPortEmitsNothing) {
  PunctuationCombiner c(2);
  EXPECT_EQ(Add(&c, 0, "[>=100,*,*]"), Claims{});
  EXPECT_EQ(Add(&c, 1, "[>=200,*,*]"), Claims{});
  EXPECT_EQ(Retire(&c, 0), Claims{P("[>=200,*,*]")});
  EXPECT_EQ(Add(&c, 1, "[>=300,*,*]"), Claims{P("[>=300,*,*]")});
  EXPECT_EQ(Retire(&c, 1), Claims{});
  EXPECT_EQ(c.live_ports(), 0);
  EXPECT_EQ(c.held(), 0u);
  // Out-of-range ports are ignored.
  EXPECT_EQ(Retire(&c, -1), Claims{});
  EXPECT_EQ(Retire(&c, 2), Claims{});
  EXPECT_EQ(Add(&c, -1, "[>=1,*,*]"), Claims{});
  EXPECT_EQ(Add(&c, 2, "[>=1,*,*]"), Claims{});
}

TEST(PunctuationCombiner, HeldSetIsDroppedWholesalePastTheBackstop) {
  PunctuationCombiner c(2);
  for (size_t i = 0; i < PunctuationCombiner::kMaxHeld; ++i) {
    Add(&c, 0, "[=" + std::to_string(i) + ",*,*]");
  }
  EXPECT_EQ(c.held(), PunctuationCombiner::kMaxHeld);
  // One more drops the held set and holds only the newcomer.
  EXPECT_EQ(Add(&c, 0, "[=-1,*,*]"), Claims{});
  EXPECT_EQ(c.held(), 1u);
  EXPECT_EQ(Add(&c, 1, "[=0,*,*]"), Claims{});
  EXPECT_EQ(Add(&c, 1, "[=-1,*,*]"), Claims{P("[=-1,*,*]")});
}

std::string Bytes(const PunctuationCombiner& c) {
  SnapshotWriter w;
  c.Write(&w);
  return w.buffer();
}

TEST(PunctuationCombiner, WriteReadRoundTripIsByteExact) {
  PunctuationCombiner c(3, {0});
  Add(&c, 0, "[*,<=10,*]");
  Add(&c, 1, "[*,<12,*]");
  Add(&c, 0, "[>=100,*,*]");
  Add(&c, 1, "[*,='x',*]");
  Retire(&c, 2);
  ASSERT_EQ(c.held(), 2u);
  const std::string bytes = Bytes(c);

  PunctuationCombiner back(3, {0});
  SnapshotReader r(bytes);
  ASSERT_TRUE(back.Read(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Bytes(back), bytes);
  EXPECT_EQ(back.live_ports(), 2);

  // The restored combiner goes on exactly as the original.
  for (PunctuationCombiner* x : {&c, &back}) {
    EXPECT_EQ(Add(x, 1, "[>=100,*,*]"), Claims{P("[>=100,*,*]")});
    EXPECT_EQ(Add(x, 0, "[*,='x',*]"), Claims{P("[*,='x',*]")});
    EXPECT_EQ(Add(x, 1, "[*,<=40,*]"), Claims{});
    EXPECT_EQ(Add(x, 0, "[*,<=30,*]"), Claims{P("[*,<=30,*]")});
  }
  EXPECT_EQ(Bytes(back), Bytes(c));
}

TEST(PunctuationCombiner, ReadRejectsAWrongPortCountAndForgedCounts) {
  PunctuationCombiner c(2);
  Add(&c, 0, "[>=1,*,*]");
  const std::string bytes = Bytes(c);
  {
    PunctuationCombiner three(3);
    SnapshotReader r(bytes);
    EXPECT_FALSE(three.Read(&r).ok());
  }
  {
    // The held-claim count is the last u32 before the held claims;
    // forge it to 2^32-1 and the reader must refuse before reserving.
    PunctuationCombiner fresh(2);
    std::string forged = Bytes(fresh);
    ASSERT_GE(forged.size(), 4u);
    const uint32_t huge = 0xFFFFFFFFu;
    forged.replace(forged.size() - 4, 4,
                   reinterpret_cast<const char*>(&huge), 4);
    PunctuationCombiner back(2);
    SnapshotReader r(forged);
    Status st = back.Read(&r);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("impossible"), std::string::npos)
        << st.ToString();
  }
  {
    // Every truncation fails cleanly.
    for (size_t n = 0; n < bytes.size(); ++n) {
      PunctuationCombiner back(2);
      SnapshotReader r(std::string_view(bytes).substr(0, n));
      EXPECT_FALSE(back.Read(&r).ok()) << "prefix " << n;
    }
  }
}

}  // namespace
}  // namespace nstream
