// The ad-hoc text workload: statements sent as text with inline
// literals to a small multi-label graph, one session, one worker. Most
// come from a few hot templates (auto-parameterized into plan-cache
// hits); the rest are distinct shapes, more than the plan cache holds,
// so they miss and are planned from scratch.
#include <memory>

#include "harness.h"

namespace cypherbench {

namespace {

using gqlite::NodeId;
using gqlite::Value;

constexpr size_t kNodes = 2000;
constexpr size_t kRels = 5000;
constexpr size_t kHotVariants = 32;  // literal sets per hot template
constexpr size_t kTailShapes = 512;  // four times the plan cache's capacity
/// Commits per second of run time; they run back to back after the
/// reads. Each takes well under a millisecond, so many are needed before
/// the 99th percentile is not set by a few scheduling or fsync stalls.
constexpr double kWritesPerSecond = 250;

const char* const kLabelNames[] = {"A", "B", "C", "D"};
const char* const kTypeNames[] = {"R1", "R2", "R3"};

class AdhocText : public Workload {
 public:
  std::vector<std::string> ReadClasses() const override {
    return {"adhoc_hot", "adhoc_tail"};
  }
  std::vector<std::string> WriteClasses() const override {
    return {std::begin(kAdhocWriteClasses), std::end(kAdhocWriteClasses)};
  }
  gqlite::EngineOptions Engine() const override { return {}; }
  size_t Readers() const override { return 1; }
  bool ConcurrentWrites() const override { return false; }
  WritePlan Writes(double seconds) const override {
    return {0, static_cast<uint64_t>(kWritesPerSecond * seconds / 3 + 0.5)};
  }
  void Generate(uint64_t seed) override {
    seed_ = seed;
    model_ = std::make_unique<AdhocModel>(kNodes, kRels, seed);
  }

  void Load(gqlite::PropertyGraph* g) const override {
    std::vector<NodeId> ids;
    for (const AdhocModel::Node& n : model_->nodes()) {
      std::vector<std::string> labels;
      for (int l = 0; l < AdhocModel::kLabels; ++l) {
        if (n.labels & (1u << l)) labels.emplace_back(kLabelNames[l]);
      }
      ids.push_back(g->CreateNode(labels, {{"id", Value::Int(n.id)},
                                           {"k", Value::Int(n.k)},
                                           {"v", Value::Int(n.v)}}));
    }
    for (const AdhocModel::Rel& r : model_->rels()) {
      (void)g->CreateRelationship(ids[r.src], ids[r.tgt], kTypeNames[r.type],
                                  {{"w", Value::Int(r.w)}});
    }
  }

  void PrepareReads(gqlite::Database* /*db*/) override {
    Rng rng(seed_ ^ 0xadc0ffeeULL);
    const std::vector<ChainQuery> hot = AdhocHotQueries(kHotVariants, &rng);
    const std::vector<ChainQuery> tail =
        AdhocTailQueries(kTailShapes, hot, &rng);
    hot_.clear();
    tail_.clear();
    for (const ChainQuery& q : hot) hot_.push_back(Op(0, q));
    for (const ChainQuery& q : tail) tail_.push_back(Op(1, q));
  }

  void PrepareWrites(gqlite::Database* /*db*/,
                     const std::vector<WriteOp>& /*writes*/) override {}
  void MakeRound(uint64_t r, Rng* rng,
                 std::vector<WriteOp>* out) const override {
    model_->MakeRound(r, rng, out);
  }
  int DroppableWriteClass() const override { return 1; }  // iu_rel

  /// Rounds of three hot statements and one tail statement.
  const ReadOp& NextRead(size_t /*reader*/, uint64_t i,
                         uint64_t /*acked*/) override {
    const uint64_t round = i / 4;
    if (i % 4 == 3) return tail_[round % tail_.size()];
    return hot_[(round * 3 + i % 4) % hot_.size()];
  }
  const gqlite::PreparedQuery* WriteStatement(int /*cls*/) const override {
    return nullptr;
  }
  gqlite::ValueMap WriteParams(const WriteOp& /*w*/) const override {
    return {};
  }
  void ApplyWrite(const WriteOp& w) override { model_->Apply(w); }
  std::vector<std::pair<std::string, std::string>> EndStateChecks()
      const override {
    return model_->EndStateChecks();
  }

 private:
  ReadOp Op(int cls, const ChainQuery& q) const {
    ReadOp op;
    op.cls = cls;
    op.text = q.Text();
    op.expected = q.Evaluate(*model_);
    return op;
  }

  uint64_t seed_ = 0;
  std::unique_ptr<AdhocModel> model_;
  std::vector<ReadOp> hot_, tail_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdhocText() {
  return std::make_unique<AdhocText>();
}

}  // namespace cypherbench
