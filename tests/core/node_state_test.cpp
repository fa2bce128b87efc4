// Direct NodeState coverage: join semantics, leave reports, round signing,
// and the commit guards.
#include <gtest/gtest.h>

#include "accountnet/util/ensure.hpp"
#include "test_util.hpp"

namespace accountnet::core {
namespace {

using testing::make_node;
using testing::retained_entries;

class NodeStateFixture : public ::testing::Test {
 protected:
  std::unique_ptr<crypto::CryptoProvider> provider_ = crypto::make_fast_crypto();
};

TEST_F(NodeStateFixture, ConfigGuards) {
  NodeConfig bad;
  bad.max_peerset = 2;
  bad.shuffle_length = 3;  // L > f
  EXPECT_THROW(make_node("x", *provider_, bad), EnsureError);
  NodeConfig zero;
  zero.shuffle_length = 0;
  EXPECT_THROW(make_node("x", *provider_, zero), EnsureError);
}

TEST_F(NodeStateFixture, JoinCapsInitialPeersetAtF) {
  NodeConfig config;
  config.max_peerset = 3;
  config.shuffle_length = 2;
  auto node = make_node("joiner", *provider_, config);
  auto bn = make_node("bn", *provider_, config);
  std::vector<PeerId> offered;
  for (int i = 0; i < 10; ++i) offered.push_back(make_node("p" + std::to_string(i), *provider_, config)->self());
  const Bytes stamp = bn->signer().sign(join_stamp_payload("joiner"));
  node->apply_join(bn->self(), stamp, offered);
  EXPECT_EQ(node->peerset().size(), 3u);
  EXPECT_EQ(node->round(), 1u);
  ASSERT_EQ(node->history().size(), 1u);
  EXPECT_EQ(node->history().back().kind, EntryKind::kJoin);
  EXPECT_EQ(node->history().back().in.size(), 3u);
}

TEST_F(NodeStateFixture, JoinSkipsSelf) {
  auto node = make_node("joiner", *provider_, {});
  auto bn = make_node("bn", *provider_, {});
  const Bytes stamp = bn->signer().sign(join_stamp_payload("joiner"));
  node->apply_join(bn->self(), stamp, {node->self(), bn->self()});
  EXPECT_FALSE(node->peerset().contains(node->self()));
  EXPECT_TRUE(node->peerset().contains(bn->self()));
}

TEST_F(NodeStateFixture, DoubleJoinRejected) {
  auto node = make_node("joiner", *provider_, {});
  auto bn = make_node("bn", *provider_, {});
  const Bytes stamp = bn->signer().sign(join_stamp_payload("joiner"));
  node->apply_join(bn->self(), stamp, {bn->self()});
  EXPECT_THROW(node->apply_join(bn->self(), stamp, {bn->self()}), EnsureError);
}

TEST_F(NodeStateFixture, SeedInitOnlyOnFreshNode) {
  auto node = make_node("seed", *provider_, {});
  node->init_as_seed();
  EXPECT_TRUE(node->peerset().empty());
  auto joined = make_node("j", *provider_, {});
  auto bn = make_node("bn", *provider_, {});
  joined->apply_join(bn->self(), bn->signer().sign(join_stamp_payload("j")),
                     {bn->self()});
  EXPECT_THROW(joined->init_as_seed(), EnsureError);
}

TEST_F(NodeStateFixture, RoundSignatureVerifies) {
  auto node = make_node("n", *provider_, {});
  const Bytes sig = node->sign_current_round();
  EXPECT_TRUE(provider_->verify(node->self().key, shuffle_nonce_payload(node->round()),
                                sig));
  EXPECT_FALSE(provider_->verify(node->self().key,
                                 shuffle_nonce_payload(node->round() + 1), sig));
}

TEST_F(NodeStateFixture, LeaveReportRoundTrip) {
  auto reporter = make_node("rep", *provider_, {});
  auto holder = make_node("holder", *provider_, {});
  auto bn = make_node("bn", *provider_, {});
  auto leaver = make_node("leaver", *provider_, {});
  holder->apply_join(bn->self(), bn->signer().sign(join_stamp_payload("holder")),
                     {leaver->self(), bn->self()});
  ASSERT_TRUE(holder->peerset().contains(leaver->self()));

  const auto [round, sig] = reporter->make_leave_report(leaver->self());
  const Round before = holder->round();
  holder->apply_leave_report(reporter->self(), round, sig, leaver->self());
  EXPECT_FALSE(holder->peerset().contains(leaver->self()));
  EXPECT_EQ(holder->round(), before + 1);
  const auto& entry = holder->history().back();
  EXPECT_EQ(entry.kind, EntryKind::kLeave);
  EXPECT_EQ(entry.out.size(), 1u);
  // The full history (join + leave) passes third-party verification.
  EXPECT_TRUE(verify_history_suffix(retained_entries(holder->history()),
                                    holder->self(), holder->peerset(), *provider_));
}

TEST_F(NodeStateFixture, LeaveReportRecordedEvenIfNotAPeer) {
  // Sec. IV-A: the entry is added "regardless of v_x being in its current
  // peerset".
  auto reporter = make_node("rep", *provider_, {});
  auto holder = make_node("holder", *provider_, {});
  auto stranger = make_node("stranger", *provider_, {});
  holder->init_as_seed();
  const auto [round, sig] = reporter->make_leave_report(stranger->self());
  holder->apply_leave_report(reporter->self(), round, sig, stranger->self());
  EXPECT_EQ(holder->history().back().kind, EntryKind::kLeave);
}

TEST_F(NodeStateFixture, SkipRoundBurnsWithoutEntry) {
  auto node = make_node("n", *provider_, {});
  const auto before = node->history().size();
  node->skip_round();
  EXPECT_EQ(node->round(), 1u);
  EXPECT_EQ(node->history().size(), before);
}

TEST_F(NodeStateFixture, CommitGuardsRoundAndCapacity) {
  NodeConfig config;
  config.max_peerset = 2;
  config.shuffle_length = 2;
  auto node = make_node("n", *provider_, config);
  HistoryEntry e;
  e.kind = EntryKind::kShuffle;
  e.self_round = 5;  // wrong: node is at round 0
  EXPECT_THROW(node->commit_shuffle(e, Peerset{}), EnsureError);

  e.self_round = 0;
  Peerset big;
  for (int i = 0; i < 3; ++i) big.insert(PeerId{"q" + std::to_string(i), {}});
  EXPECT_THROW(node->commit_shuffle(e, big), EnsureError);
}

TEST_F(NodeStateFixture, HistoryTrimHonorsLimit) {
  NodeConfig config;
  config.max_peerset = 2;
  config.shuffle_length = 1;
  config.history_limit = 4;
  auto node = make_node("n", *provider_, config);
  auto reporter = make_node("rep", *provider_, {});
  auto stranger = make_node("s", *provider_, {});
  for (int i = 0; i < 10; ++i) {
    const auto [round, sig] = reporter->make_leave_report(stranger->self());
    node->apply_leave_report(reporter->self(), round, sig, stranger->self());
  }
  EXPECT_EQ(node->history().size(), 4u);
  EXPECT_EQ(node->history().total_appended(), 10u);
}

}  // namespace
}  // namespace accountnet::core
