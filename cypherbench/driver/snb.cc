// The two SNB-shaped workloads: snb-interactive (short reads from two
// sessions while one session commits paced writes to a durable
// database) and snb-analytic (BI-style reads on a larger graph, on the
// parallel runtime, one session).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "harness.h"

namespace cypherbench {

namespace {

using gqlite::Database;
using gqlite::NodeId;
using gqlite::PreparedQuery;
using gqlite::Value;

constexpr size_t kInteractivePersons = 10000;
constexpr size_t kAnalyticPersons = 12000;
/// Commits per second of run time. The interactive writer is paced at
/// this rate, well under its capacity, so the commit count, the WAL and
/// the replay length are the same every run.
constexpr double kWriteRate = 50;
/// Read parameters per interactive class, spread evenly over the degree
/// ranks.
constexpr size_t kInteractivePool = 256;

const char* const kReadText[] = {
    // is1_profile
    "MATCH (p:Person {id: $id}) "
    "RETURN p.firstName AS firstName, p.age AS age, p.city AS city",
    // is2_posts
    "MATCH (p:Person {id: $id})<-[:HAS_CREATOR]-(m:Post) "
    "RETURN m.id AS id, m.length AS length ORDER BY id DESC LIMIT 10",
    // is3_friends
    "MATCH (p:Person {id: $id})-[k:KNOWS]-(f:Person) "
    "RETURN f.id AS id, k.since AS since ORDER BY id",
    // ic_fof
    "MATCH (p:Person {id: $id})-[:KNOWS]-(f:Person)-[:KNOWS]-(g:Person) "
    "WHERE g.id <> $id RETURN count(DISTINCT g) AS n",
};

const char* const kBiText[] = {
    // bi_agg
    "MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) WHERE m.length > $length "
    "RETURN p.city AS city, count(m) AS posts, sum(m.length) AS total "
    "ORDER BY city",
    // bi_topk
    "MATCH (f:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(p:Person) "
    "WHERE m.lang = $lang AND m.length > $length "
    "RETURN p.id AS id, count(*) AS likes ORDER BY likes DESC, id LIMIT 10",
    // bi_distinct
    "MATCH (p:Person)-[:LIKES]->(m:Post) WHERE p.age >= $age "
    "RETURN DISTINCT m.lang AS lang, p.city AS city",
    // bi_filter
    "MATCH (m:Post) WHERE m.length * 3 + m.id % 7 > $x AND m.lang <> $lang "
    "RETURN count(m) AS n",
    // bi_varlen
    "MATCH (p:Person)-[:KNOWS*1..2]-(f:Person) WHERE p.age = $age "
    "RETURN count(*) AS n",
};

const char* const kWriteText[] = {
    // iu_person
    "CREATE (:Person {id: $id, firstName: $firstName, age: $age, "
    "city: $city})",
    // iu_post
    "MATCH (p:Person {id: $pid}) "
    "CREATE (:Post {id: $id, length: $length, lang: $lang})"
    "-[:HAS_CREATOR]->(p)",
    // iu_like
    "MATCH (p:Person {id: $pid}), (m:Post {id: $mid}) CREATE (p)-[:LIKES]->(m)",
    // iu_knows
    "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
    "CREATE (a)-[:KNOWS {since: $since}]->(b)",
    // iu_set
    "MATCH (p:Person {id: $pid}) SET p.score = $score",
};

PreparedQuery PrepareOrDie(Database* db, const char* text) {
  auto p = db->Prepare(text);
  if (!p.ok()) {
    std::fprintf(stderr, "cannot prepare %s: %s\n", text,
                 p.status().ToString().c_str());
    std::exit(3);
  }
  return *p;
}

void LoadSnb(const SnbModel& m, gqlite::PropertyGraph* g) {
  std::vector<NodeId> person(m.persons().size()), post(m.posts().size());
  for (size_t i = 0; i < m.persons().size(); ++i) {
    const SnbPerson& p = m.persons()[i];
    person[i] = g->CreateNode(
        {"Person"}, {{"id", Value::Int(p.id)},
                     {"firstName", Value::String(kFirstNames[p.first_name])},
                     {"age", Value::Int(p.age)},
                     {"city", Value::String(kCities[p.city])}});
  }
  for (size_t j = 0; j < m.posts().size(); ++j) {
    const SnbPost& x = m.posts()[j];
    post[j] = g->CreateNode({"Post"}, {{"id", Value::Int(x.id)},
                                       {"length", Value::Int(x.length)},
                                       {"lang", Value::String(kLangs[x.lang])}});
    (void)g->CreateRelationship(post[j], person[x.creator], "HAS_CREATOR");
  }
  for (const SnbKnows& k : m.knows()) {
    (void)g->CreateRelationship(person[k.a], person[k.b], "KNOWS",
                                {{"since", Value::Int(k.since)}});
  }
  for (const SnbLike& l : m.likes()) {
    (void)g->CreateRelationship(person[l.person], post[l.post], "LIKES");
  }
}

/// What both SNB workloads share: the model, its load and the write mix.
class SnbBase : public Workload {
 public:
  std::vector<std::string> WriteClasses() const override {
    return {std::begin(kSnbWriteClasses), std::end(kSnbWriteClasses)};
  }
  void Load(gqlite::PropertyGraph* g) const override { LoadSnb(*model_, g); }
  void MakeRound(uint64_t r, Rng* rng,
                 std::vector<WriteOp>* out) const override {
    model_->MakeRound(r, rng, out);
  }
  void PrepareWrites(Database* db,
                     const std::vector<WriteOp>& /*writes*/) override {
    write_stmt_.clear();
    for (const char* text : kWriteText) {
      write_stmt_.push_back(PrepareOrDie(db, text));
    }
  }
  int DroppableWriteClass() const override { return 2; }  // iu_like
  const PreparedQuery* WriteStatement(int cls) const override {
    return &write_stmt_[cls];
  }
  gqlite::ValueMap WriteParams(const WriteOp& w) const override {
    return ToValueMap(model_->Params(w));
  }
  void ApplyWrite(const WriteOp& w) override { model_->Apply(w); }
  std::vector<std::pair<std::string, std::string>> EndStateChecks()
      const override {
    return model_->EndStateChecks();
  }

 protected:
  std::unique_ptr<SnbModel> model_;
  std::vector<PreparedQuery> stmt_;
  std::vector<PreparedQuery> write_stmt_;
  std::vector<ReadOp> pool_;
};

class SnbInteractive : public SnbBase {
 public:
  std::vector<std::string> ReadClasses() const override {
    return {"is1_profile", "is2_posts", "is3_friends", "ic_fof"};
  }
  gqlite::EngineOptions Engine() const override { return {}; }
  size_t Readers() const override { return 2; }
  bool ConcurrentWrites() const override { return true; }
  WritePlan Writes(double seconds) const override {
    return {kWriteRate, static_cast<uint64_t>(kWriteRate * seconds / 5 + 0.5)};
  }
  void Generate(uint64_t seed) override {
    model_ = std::make_unique<SnbModel>(kInteractivePersons, seed);
  }

  void PrepareReads(Database* db) override {
    stmt_.clear();
    for (const char* text : kReadText) stmt_.push_back(PrepareOrDie(db, text));
    pool_.clear();
    for (int cls = 0; cls < 4; ++cls) {
      for (size_t j = 0; j < kInteractivePool; ++j) {
        const uint32_t p = model_->PersonByRank(
            (2 * j + 1) * model_->loaded() / (2 * kInteractivePool));
        ReadOp op;
        op.cls = cls;
        op.prepared = &stmt_[cls];
        op.text = kReadText[cls];
        op.params["id"] = Value::Int(model_->persons()[p].id);
        op.expected = cls == 0   ? model_->Is1Profile(p)
                      : cls == 1 ? model_->Is2Posts(p)
                      : cls == 2 ? model_->Is3Friends(p)
                                 : model_->IcFriendsOfFriends(p);
        pool_.push_back(std::move(op));
      }
    }
  }

  void PrepareWrites(Database* db, const std::vector<WriteOp>& writes) override {
    SnbBase::PrepareWrites(db, writes);
    // A profile read of each person the writer creates: sent once the
    // creating commit is acknowledged, it must find the person.
    fresh_.clear();
    for (const WriteOp& w : writes) {
      if (w.cls != 0) continue;
      ReadOp op;
      op.cls = 0;
      op.prepared = &stmt_[0];
      op.text = kReadText[0];
      op.params["id"] = Value::Int(w.a);
      op.expected = std::string(kFirstNames[w.b]) + "|" + Cell(w.c) + "|" +
                    kCities[w.d] + "\n";
      fresh_.push_back(std::move(op));
    }
  }

  const ReadOp& NextRead(size_t reader, uint64_t i, uint64_t acked) override {
    const uint64_t round = i / 4;
    const int cls = static_cast<int>(i % 4);
    // Every fourth profile read targets the newest acknowledged person.
    if (cls == 0 && round % 4 == 3 && acked > 0) {
      return fresh_[(acked - 1) / 5];
    }
    const size_t j =
        (round + reader * (kInteractivePool / 2)) % kInteractivePool;
    return pool_[cls * kInteractivePool + j];
  }

 private:
  std::vector<ReadOp> fresh_;
};

class SnbAnalytic : public SnbBase {
 public:
  static constexpr size_t kVariants = 8;

  std::vector<std::string> ReadClasses() const override {
    return {"bi_agg", "bi_topk", "bi_distinct", "bi_filter", "bi_varlen"};
  }
  gqlite::EngineOptions Engine() const override {
    // Two workers, not nproc: on a shared host every parallel query waits
    // for its slowest worker, and with all vCPUs busy one that the host
    // takes away stalls the query. At nproc = 4, five runs of the same
    // code spread 0.25-0.35 (IQR over median) in throughput and read
    // latency; at two workers, ten runs spread about 0.1.
    gqlite::EngineOptions o;
    o.num_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
    return o;
  }
  size_t Readers() const override { return 1; }
  bool ConcurrentWrites() const override { return false; }
  WritePlan Writes(double seconds) const override {
    // After the reads, half as many commits as snb-interactive, back to
    // back: they exist to give the recovery metrics a WAL, and the reads'
    // 1,000-read floor already makes this the longest workload to run.
    return {0, static_cast<uint64_t>(kWriteRate * seconds / 10 + 0.5)};
  }
  void Generate(uint64_t seed) override {
    model_ = std::make_unique<SnbModel>(kAnalyticPersons, seed);
  }

  void PrepareReads(Database* db) override {
    stmt_.clear();
    for (const char* text : kBiText) stmt_.push_back(PrepareOrDie(db, text));
    pool_.clear();
    for (int cls = 0; cls < 5; ++cls) {
      for (size_t j = 0; j < kVariants; ++j) {
        const auto v = static_cast<int64_t>(j);
        ReadOp op;
        op.cls = cls;
        op.prepared = &stmt_[cls];
        op.text = kBiText[cls];
        switch (cls) {
          case 0:
            op.params["length"] = Value::Int(1400 + v * 75);
            op.expected = model_->BiAgg(1400 + v * 75);
            break;
          case 1:
            op.params["lang"] = Value::String(kLangs[j % kNumLangs]);
            op.params["length"] = Value::Int(800 + v * 100);
            op.expected =
                model_->BiTopK(static_cast<int>(j % kNumLangs), 800 + v * 100);
            break;
          case 2:
            op.params["age"] = Value::Int(60 + v * 2);
            op.expected = model_->BiDistinct(60 + v * 2);
            op.unordered = true;
            break;
          case 3:
            op.params["x"] = Value::Int(500 + v * 600);
            op.params["lang"] = Value::String(kLangs[(j + 3) % kNumLangs]);
            op.expected = model_->BiFilter(
                500 + v * 600, static_cast<int>((j + 3) % kNumLangs));
            break;
          default:
            op.params["age"] = Value::Int(20 + v * 7);
            op.expected = model_->BiVarLen(20 + v * 7);
            break;
        }
        pool_.push_back(std::move(op));
      }
    }
  }

  const ReadOp& NextRead(size_t /*reader*/, uint64_t i,
                         uint64_t /*acked*/) override {
    return pool_[(i % 5) * kVariants + (i / 5) % kVariants];
  }
};

}  // namespace

std::unique_ptr<Workload> MakeSnbInteractive() {
  return std::make_unique<SnbInteractive>();
}
std::unique_ptr<Workload> MakeSnbAnalytic() {
  return std::make_unique<SnbAnalytic>();
}

}  // namespace cypherbench
