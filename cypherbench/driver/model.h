// Seeded graph generators and the plain-C++ reference model the
// benchmark checks gqlite's answers against. Nothing in this file calls
// gqlite: the model keeps its own adjacency and property arrays, and
// every expected answer is computed from them directly.
#ifndef CYPHERBENCH_DRIVER_MODEL_H_
#define CYPHERBENCH_DRIVER_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cypherbench {

/// splitmix64: a small, fully specified generator, so the same seed
/// gives the same graph with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Samples ranks 0..n-1 with probability proportional to (rank+1)^-s.
/// Used as Chung-Lu endpoint weights: s = 0.5 gives a power-law degree
/// tail with exponent 1 + 1/s = 3.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cumulative_;
};

/// One integer cell of an expected answer. The model renders rows in the
/// canonical text form the driver renders gqlite's result tables in (see
/// Canonical in harness.h): cells joined by '|', one line per row.
std::string Cell(int64_t v);

// ------------------------------------------------------------ SNB shape

struct SnbPerson {
  int64_t id = 0;
  int first_name = 0;  // index into kFirstNames
  int64_t age = 0;
  int city = 0;  // index into kCities
  bool has_score = false;
  int64_t score = 0;
};

struct SnbPost {
  int64_t id = 0;
  uint32_t creator = 0;  // person index
  int64_t length = 0;
  int lang = 0;  // index into kLangs
};

struct SnbKnows {
  uint32_t a = 0, b = 0;  // person indices, stored a -> b
  int64_t since = 0;
};

struct SnbLike {
  uint32_t person = 0, post = 0;
};

extern const char* const kFirstNames[];
extern const char* const kCities[];
extern const char* const kLangs[];
inline constexpr int kNumFirstNames = 40;
inline constexpr int kNumCities = 24;
inline constexpr int kNumLangs = 8;

/// One write of a workload's write mix. The integer fields carry the
/// class-specific arguments; `text` is the statement when it is sent
/// with inline literals (empty when the class's prepared statement is
/// executed with parameters instead).
struct WriteOp {
  int cls = 0;
  int64_t a = 0, b = 0, c = 0, d = 0;
  std::string text;
};

/// A statement parameter.
struct NamedValue {
  std::string key;
  bool is_string = false;
  int64_t i = 0;
  std::string s;
};

/// An LDBC-SNB-shaped social network: Persons, Posts, KNOWS (persons,
/// power-law degrees), HAS_CREATOR (post -> person, power-law posts per
/// person) and LIKES (person -> post, power-law on both ends). Person
/// index == person id, post index == post id.
///
/// The first `loaded` persons form the social graph. The next
/// kWriterPool persons are loaded too but have no relationships: the
/// write mix connects only writer-pool and newly created persons, so
/// every read of the loaded social graph has one exact answer however
/// the reads interleave with the writes.
class SnbModel {
 public:
  static constexpr size_t kWriterPool = 16;

  SnbModel(size_t persons, uint64_t seed);

  size_t loaded() const { return loaded_; }
  /// Person index of the `rank`-th most connected loaded person (by
  /// generator weight). Read parameters are drawn by rank so that every
  /// seed reads persons with the same degree profile.
  uint32_t PersonByRank(size_t rank) const { return by_rank_[rank]; }

  // Expected answers of the interactive reads (canonical rows).
  std::string Is1Profile(uint32_t p) const;
  std::string Is2Posts(uint32_t p) const;
  std::string Is3Friends(uint32_t p) const;
  std::string IcFriendsOfFriends(uint32_t p) const;

  // Expected answers of the analytic reads.
  std::string BiAgg(int64_t min_length) const;
  std::string BiTopK(int lang, int64_t min_length) const;
  std::string BiDistinct(int64_t min_age) const;  // sorted rows
  std::string BiFilter(int64_t x, int lang) const;
  std::string BiVarLen(int64_t age) const;

  /// The write mix comes in rounds of five operations, one per write
  /// class (kSnbWriteClasses), iu_person first. Appends round `r`, drawn
  /// from `rng`, to `out` without applying it (see Apply). Rounds must be
  /// made in order.
  void MakeRound(uint64_t r, Rng* rng, std::vector<WriteOp>* out) const;
  /// The statement parameters of a write made by MakeRound.
  std::vector<NamedValue> Params(const WriteOp& w) const;
  void Apply(const WriteOp& w);

  /// End-state checks: statement text and the expected single row.
  std::vector<std::pair<std::string, std::string>> EndStateChecks() const;

  const std::vector<SnbPerson>& persons() const { return persons_; }
  const std::vector<SnbPost>& posts() const { return posts_; }
  const std::vector<SnbKnows>& knows() const { return knows_; }
  const std::vector<SnbLike>& likes() const { return likes_; }

 private:
  size_t loaded_ = 0;
  size_t loaded_posts_ = 0;
  std::vector<SnbPerson> persons_;
  std::vector<SnbPost> posts_;
  std::vector<SnbKnows> knows_;
  std::vector<SnbLike> likes_;
  /// Undirected KNOWS adjacency: (other person, since).
  std::vector<std::vector<std::pair<uint32_t, int64_t>>> friends_;
  std::vector<std::vector<uint32_t>> posts_by_;
  std::vector<uint32_t> by_rank_;
};

inline constexpr const char* kSnbWriteClasses[] = {
    "iu_person", "iu_post", "iu_like", "iu_knows", "iu_set"};

// ------------------------------------------------------- ad-hoc graph

/// A small random multi-label graph: labels A..D (one or two per node),
/// relationship types R1..R3, integer properties k (selective), v and
/// id on nodes and w on relationships. No self-loops.
class AdhocModel {
 public:
  static constexpr int kLabels = 4;
  static constexpr int kTypes = 3;
  static constexpr int64_t kKeyRange = 64;  // distinct values of k

  struct Node {
    uint8_t labels = 0;  // bitmask over A..D
    int64_t id = 0, k = 0, v = 0;
  };
  struct Rel {
    uint32_t src = 0, tgt = 0;
    int type = 0;
    int64_t w = 0;
  };

  AdhocModel(size_t nodes, size_t rels, uint64_t seed);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Rel>& rels() const { return rels_; }
  const std::vector<std::vector<uint32_t>>& out() const { return out_; }
  const std::vector<std::vector<uint32_t>>& in() const { return in_; }

  /// The write mix comes in rounds of three operations, one per write
  /// class (kAdhocWriteClasses), sent as text with inline literals.
  void MakeRound(uint64_t r, Rng* rng, std::vector<WriteOp>* out) const;
  void Apply(const WriteOp& w);

  std::vector<std::pair<std::string, std::string>> EndStateChecks() const;

 private:
  void AddRel(uint32_t src, uint32_t tgt, int type, int64_t w);

  size_t initial_nodes_ = 0;
  std::vector<Node> nodes_;
  std::vector<Rel> rels_;
  std::vector<std::vector<uint32_t>> out_, in_;
};

inline constexpr const char* kAdhocWriteClasses[] = {"iu_node", "iu_rel",
                                                     "iu_set"};

/// A chain pattern over the ad-hoc graph plus a projection: the small
/// query language the ad-hoc workload draws its statements from. The
/// same object renders the Cypher text (with inline literals) and
/// evaluates the expected answer on the model, under relationship
/// isomorphism (no relationship repeats within a match).
struct ChainQuery {
  enum Dir : uint8_t { kOut, kIn, kBoth };
  enum Cmp : uint8_t { kEq, kNe, kLt, kGt };
  struct Cond {
    int var = 0;      // node index, or 100 + rel index
    char prop = 'k';  // 'k', 'v' or 'w'
    Cmp cmp = kEq;
    int64_t value = 0;
  };
  enum Proj : uint8_t {
    kCount,          // count(*)
    kCountDistinct,  // count(DISTINCT n<arg>)
    kSum,            // sum(n<arg>.v)
    kMin,            // min(n<arg>.v)
    kMax,            // max(n<arg>.v)
    kGroupK,         // n<arg>.k AS k, count(*) ORDER BY k
    kTopW,           // n<arg>.id, r0.w ORDER BY w DESC, id LIMIT 5
    kGroupType,      // type(r0), count(*) ORDER BY t
    kFirstIds,       // n<arg>.id ORDER BY id LIMIT 10
  };

  std::vector<int> labels;  // per node: -1 = none, else 0..3
  std::vector<int> types;   // per rel: -1 = any, else 0..2
  std::vector<Dir> dirs;    // per rel
  /// The conjunction the matches satisfy. With `anchor_inline`, the
  /// first condition (an equality on n0.k) is written as a property map
  /// `(n0 {k: ..})` instead of in WHERE.
  std::vector<Cond> conds;
  bool anchor_inline = false;
  Proj proj = kCount;
  int arg = 0;

  std::string Text() const { return Render(false); }
  /// The statement with every literal replaced: two queries with the same
  /// shape share a plan-cache entry.
  std::string Shape() const { return Render(true); }
  std::string Evaluate(const AdhocModel& m) const;

 private:
  std::string Render(bool shape) const;
};

/// The hot templates of the ad-hoc workload, `per_template` literal
/// variants of each.
std::vector<ChainQuery> AdhocHotQueries(size_t per_template, Rng* rng);
/// `count` random chain queries whose shapes are pairwise distinct and
/// distinct from every shape in `taken`.
std::vector<ChainQuery> AdhocTailQueries(size_t count,
                                         const std::vector<ChainQuery>& taken,
                                         Rng* rng);

}  // namespace cypherbench

#endif  // CYPHERBENCH_DRIVER_MODEL_H_
