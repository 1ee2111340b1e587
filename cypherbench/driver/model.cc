#include "model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace cypherbench {

const char* const kFirstNames[] = {
    "Ada",    "Alan",   "Barbara", "Alonzo", "Donald", "Edsger",  "Frances",
    "Grace",  "Hedy",   "Ivan",    "John",   "Ken",    "Leslie",  "Margaret",
    "Niklaus", "Ole",   "Peter",   "Radia",  "Shafi",  "Tim",     "Ursula",
    "Vint",   "Whitfield", "Xavier", "Yukihiro", "Zhou", "Bjarne", "Dennis",
    "Edgar",  "Fran",   "Guido",   "Hal",    "Irene",  "Jim",     "Kathleen",
    "Lynn",   "Maurice", "Nancy",  "Olga",   "Robin"};
const char* const kCities[] = {
    "Amsterdam", "Berlin",  "Cairo",   "Delhi",     "Edinburgh", "Florence",
    "Geneva",    "Hanoi",   "Istanbul", "Jakarta",  "Kyoto",     "Lagos",
    "Madrid",    "Nairobi", "Oslo",    "Paris",     "Quito",     "Rome",
    "Santiago",  "Tokyo",   "Utrecht", "Valencia",  "Warsaw",    "Zurich"};
const char* const kLangs[] = {"en", "de", "fr", "es", "zh", "ja", "pt", "ru"};

std::string Cell(int64_t v) { return std::to_string(v); }

namespace {

std::string Row(std::initializer_list<std::string> cells) {
  std::string out;
  for (const std::string& c : cells) {
    if (!out.empty()) out += '|';
    out += c;
  }
  return out;
}

std::string JoinRows(const std::vector<std::string>& rows) {
  std::string out;
  for (const std::string& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

NamedValue Int(const char* key, int64_t v) {
  NamedValue p;
  p.key = key;
  p.i = v;
  return p;
}

NamedValue Str(const char* key, const char* v) {
  NamedValue p;
  p.key = key;
  p.is_string = true;
  p.s = v;
  return p;
}

}  // namespace

ZipfSampler::ZipfSampler(size_t n, double s) : cumulative_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cumulative_[i] = total;
  }
}

size_t ZipfSampler::Sample(Rng* rng) const {
  double u = rng->Unit() * cumulative_.back();
  size_t i = std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
             cumulative_.begin();
  return std::min(i, cumulative_.size() - 1);
}

// ---------------------------------------------------------------- SNB

SnbModel::SnbModel(size_t n, uint64_t seed) : loaded_(n) {
  Rng rng(seed);
  by_rank_.resize(n);
  std::iota(by_rank_.begin(), by_rank_.end(), 0u);
  Shuffle(&by_rank_, &rng);
  const ZipfSampler people(n, 0.5);
  auto person = [&] { return by_rank_[people.Sample(&rng)]; };

  persons_.resize(n + kWriterPool);
  for (size_t i = 0; i < persons_.size(); ++i) {
    SnbPerson& p = persons_[i];
    p.id = static_cast<int64_t>(i);
    p.first_name = static_cast<int>(rng.Below(kNumFirstNames));
    p.age = 18 + static_cast<int64_t>(rng.Below(63));
    p.city = static_cast<int>(rng.Below(kNumCities));
  }
  friends_.resize(persons_.size());
  posts_by_.resize(persons_.size());

  // Five posts per person on average, creators drawn by weight.
  loaded_posts_ = 5 * n;
  posts_.resize(loaded_posts_);
  for (size_t j = 0; j < loaded_posts_; ++j) {
    SnbPost& m = posts_[j];
    m.id = static_cast<int64_t>(j);
    m.creator = person();
    m.length = 1 + static_cast<int64_t>(rng.Below(2000));
    m.lang = static_cast<int>(rng.Below(kNumLangs));
    posts_by_[m.creator].push_back(static_cast<uint32_t>(j));
  }

  // KNOWS: five edges per person on average (mean degree ten), both ends
  // drawn by weight; no self-loops, at most one edge per pair.
  std::unordered_set<uint64_t> seen;
  while (knows_.size() < 5 * n) {
    uint32_t a = person(), b = person();
    if (a == b) continue;
    uint64_t key = (static_cast<uint64_t>(std::min(a, b)) << 32) |
                   std::max(a, b);
    if (!seen.insert(key).second) continue;
    knows_.push_back({a, b, static_cast<int64_t>(rng.Below(10000))});
    friends_[a].emplace_back(b, knows_.back().since);
    friends_[b].emplace_back(a, knows_.back().since);
  }

  // LIKES: fifteen per person on average; active persons and popular
  // posts both follow the power law.
  std::vector<uint32_t> post_rank(loaded_posts_);
  std::iota(post_rank.begin(), post_rank.end(), 0u);
  Shuffle(&post_rank, &rng);
  const ZipfSampler popular(loaded_posts_, 0.5);
  seen.clear();
  while (likes_.size() < 15 * n) {
    uint32_t p = person(), m = post_rank[popular.Sample(&rng)];
    if (!seen.insert((static_cast<uint64_t>(p) << 32) | m).second) continue;
    likes_.push_back({p, m});
  }
}

std::string SnbModel::Is1Profile(uint32_t p) const {
  const SnbPerson& x = persons_[p];
  return JoinRows({Row({kFirstNames[x.first_name], Cell(x.age),
                        kCities[x.city]})});
}

std::string SnbModel::Is2Posts(uint32_t p) const {
  std::vector<uint32_t> ids = posts_by_[p];
  std::sort(ids.rbegin(), ids.rend());
  std::vector<std::string> rows;
  for (size_t i = 0; i < ids.size() && i < 10; ++i) {
    rows.push_back(Row({Cell(posts_[ids[i]].id), Cell(posts_[ids[i]].length)}));
  }
  return JoinRows(rows);
}

std::string SnbModel::Is3Friends(uint32_t p) const {
  auto f = friends_[p];
  std::sort(f.begin(), f.end());
  std::vector<std::string> rows;
  for (const auto& [other, since] : f) {
    rows.push_back(Row({Cell(persons_[other].id), Cell(since)}));
  }
  return JoinRows(rows);
}

std::string SnbModel::IcFriendsOfFriends(uint32_t p) const {
  std::unordered_set<uint32_t> fof;
  for (const auto& f : friends_[p]) {
    for (const auto& g : friends_[f.first]) {
      if (g.first != p) fof.insert(g.first);
    }
  }
  return JoinRows({Cell(static_cast<int64_t>(fof.size()))});
}

std::string SnbModel::BiAgg(int64_t min_length) const {
  std::map<std::string, std::pair<int64_t, int64_t>> by_city;
  for (const SnbPost& m : posts_) {
    if (m.length <= min_length) continue;
    auto& g = by_city[kCities[persons_[m.creator].city]];
    ++g.first;
    g.second += m.length;
  }
  std::vector<std::string> rows;
  for (const auto& [city, g] : by_city) {
    rows.push_back(Row({city, Cell(g.first), Cell(g.second)}));
  }
  return JoinRows(rows);
}

std::string SnbModel::BiTopK(int lang, int64_t min_length) const {
  std::vector<int64_t> likes(persons_.size(), 0);
  for (const SnbLike& l : likes_) {
    const SnbPost& m = posts_[l.post];
    if (m.lang == lang && m.length > min_length) ++likes[m.creator];
  }
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (-likes, id)
  for (size_t p = 0; p < likes.size(); ++p) {
    if (likes[p] > 0) ranked.emplace_back(-likes[p], persons_[p].id);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> rows;
  for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
    rows.push_back(Row({Cell(ranked[i].second), Cell(-ranked[i].first)}));
  }
  return JoinRows(rows);
}

std::string SnbModel::BiDistinct(int64_t min_age) const {
  std::set<std::string> rows;
  for (const SnbLike& l : likes_) {
    const SnbPerson& p = persons_[l.person];
    if (p.age < min_age) continue;
    rows.insert(Row({kLangs[posts_[l.post].lang], kCities[p.city]}));
  }
  return JoinRows(std::vector<std::string>(rows.begin(), rows.end()));
}

std::string SnbModel::BiFilter(int64_t x, int lang) const {
  int64_t n = 0;
  for (const SnbPost& m : posts_) {
    if (m.length * 3 + m.id % 7 > x && m.lang != lang) ++n;
  }
  return JoinRows({Cell(n)});
}

std::string SnbModel::BiVarLen(int64_t age) const {
  // Undirected KNOWS paths of length one and two from each person of
  // that age. Relationship isomorphism forbids walking straight back
  // over the first edge, hence deg(x) - 1 continuations through x.
  int64_t n = 0;
  for (size_t p = 0; p < persons_.size(); ++p) {
    if (persons_[p].age != age) continue;
    n += static_cast<int64_t>(friends_[p].size());
    for (const auto& x : friends_[p]) {
      n += static_cast<int64_t>(friends_[x.first].size()) - 1;
    }
  }
  return JoinRows({Cell(n)});
}

void SnbModel::MakeRound(uint64_t r, Rng* rng,
                         std::vector<WriteOp>* out) const {
  const auto fresh = static_cast<int64_t>(loaded_ + kWriterPool + r);
  const auto earlier = static_cast<int64_t>(loaded_);
  auto below = [&](uint64_t n) { return static_cast<int64_t>(rng->Below(n)); };
  // iu_like, by far the slowest class, is followed by the cheapest, so
  // that a late iu_like seldom makes the next write late too.
  out->push_back({0, fresh, below(kNumFirstNames), 18 + below(63),
                  below(kNumCities), {}});
  out->push_back({2, fresh, below(loaded_posts_), 0, 0, {}});
  out->push_back({4, below(fresh + 1), below(1000000), 0, 0, {}});
  out->push_back({1, fresh, static_cast<int64_t>(loaded_posts_ + r),
                  1 + below(2000), below(kNumLangs), {}});
  out->push_back({3, fresh, earlier + below(kWriterPool + r), below(10000), 0,
                  {}});
}

std::vector<NamedValue> SnbModel::Params(const WriteOp& w) const {
  switch (w.cls) {
    case 0:
      return {Int("id", w.a), Str("firstName", kFirstNames[w.b]),
              Int("age", w.c), Str("city", kCities[w.d])};
    case 1:
      return {Int("pid", w.a), Int("id", w.b), Int("length", w.c),
              Str("lang", kLangs[w.d])};
    case 2:
      return {Int("pid", w.a), Int("mid", w.b)};
    case 3:
      return {Int("a", w.a), Int("b", w.b), Int("since", w.c)};
    default:
      return {Int("pid", w.a), Int("score", w.b)};
  }
}

void SnbModel::Apply(const WriteOp& w) {
  switch (w.cls) {
    case 0: {
      if (static_cast<size_t>(w.a) != persons_.size()) {
        throw std::logic_error("SNB writes applied out of order");
      }
      SnbPerson p;
      p.id = w.a;
      p.first_name = static_cast<int>(w.b);
      p.age = w.c;
      p.city = static_cast<int>(w.d);
      persons_.push_back(p);
      friends_.emplace_back();
      posts_by_.emplace_back();
      break;
    }
    case 1: {
      if (static_cast<size_t>(w.b) != posts_.size()) {
        throw std::logic_error("SNB writes applied out of order");
      }
      SnbPost m;
      m.id = w.b;
      m.creator = static_cast<uint32_t>(w.a);
      m.length = w.c;
      m.lang = static_cast<int>(w.d);
      posts_.push_back(m);
      posts_by_[m.creator].push_back(static_cast<uint32_t>(w.b));
      break;
    }
    case 2:
      likes_.push_back({static_cast<uint32_t>(w.a), static_cast<uint32_t>(w.b)});
      break;
    case 3: {
      auto a = static_cast<uint32_t>(w.a), b = static_cast<uint32_t>(w.b);
      knows_.push_back({a, b, w.c});
      friends_[a].emplace_back(b, w.c);
      friends_[b].emplace_back(a, w.c);
      break;
    }
    default:
      persons_[w.a].has_score = true;
      persons_[w.a].score = w.b;
      break;
  }
}

std::vector<std::pair<std::string, std::string>> SnbModel::EndStateChecks()
    const {
  int64_t ids = 0, ages = 0, names = 0, cities = 0, scores = 0;
  for (const SnbPerson& p : persons_) {
    ids += p.id;
    ages += p.age;
    names += static_cast<int64_t>(std::string(kFirstNames[p.first_name]).size());
    cities += static_cast<int64_t>(std::string(kCities[p.city]).size());
    if (p.has_score) scores += p.score;
  }
  int64_t post_ids = 0, lengths = 0, langs = 0, creator_ends = 0;
  for (const SnbPost& m : posts_) {
    post_ids += m.id;
    lengths += m.length;
    langs += static_cast<int64_t>(std::string(kLangs[m.lang]).size());
    creator_ends += m.id * 5 + persons_[m.creator].id;
  }
  int64_t since = 0, knows_ends = 0;
  for (const SnbKnows& k : knows_) {
    since += k.since;
    knows_ends += persons_[k.a].id * 3 + persons_[k.b].id;
  }
  int64_t like_ends = 0;
  for (const SnbLike& l : likes_) {
    like_ends += persons_[l.person].id * 7 + posts_[l.post].id;
  }
  auto n = [](size_t v) { return Cell(static_cast<int64_t>(v)); };
  return {
      {"MATCH (n) RETURN count(n) AS n",
       JoinRows({n(persons_.size() + posts_.size())})},
      {"MATCH ()-[r]->() RETURN count(r) AS n",
       JoinRows({n(posts_.size() + knows_.size() + likes_.size())})},
      {"MATCH (p:Person) RETURN count(p) AS n, sum(p.id) AS ids, "
       "sum(p.age) AS ages, sum(size(p.firstName)) AS names, "
       "sum(size(p.city)) AS cities, sum(p.score) AS scores",
       JoinRows({Row({n(persons_.size()), Cell(ids), Cell(ages), Cell(names),
                      Cell(cities), Cell(scores)})})},
      {"MATCH (m:Post) RETURN count(m) AS n, sum(m.id) AS ids, "
       "sum(m.length) AS lengths, sum(size(m.lang)) AS langs",
       JoinRows({Row({n(posts_.size()), Cell(post_ids), Cell(lengths),
                      Cell(langs)})})},
      {"MATCH (a:Person)-[k:KNOWS]->(b:Person) RETURN count(k) AS n, "
       "sum(k.since) AS since, sum(a.id * 3 + b.id) AS ends",
       JoinRows({Row({n(knows_.size()), Cell(since), Cell(knows_ends)})})},
      {"MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) RETURN count(*) AS n, "
       "sum(m.id * 5 + p.id) AS ends",
       JoinRows({Row({n(posts_.size()), Cell(creator_ends)})})},
      {"MATCH (p:Person)-[:LIKES]->(m:Post) RETURN count(*) AS n, "
       "sum(p.id * 7 + m.id) AS ends",
       JoinRows({Row({n(likes_.size()), Cell(like_ends)})})},
  };
}

// ------------------------------------------------------------- ad hoc

namespace {

const char* const kLabelNames[] = {"A", "B", "C", "D"};
const char* const kTypeNames[] = {"R1", "R2", "R3"};

std::string LabelList(uint8_t mask) {
  std::string out;
  for (int l = 0; l < AdhocModel::kLabels; ++l) {
    if (mask & (1u << l)) out += std::string(":") + kLabelNames[l];
  }
  return out;
}

uint8_t RandomLabels(Rng* rng) {
  auto mask = static_cast<uint8_t>(1u << rng->Below(AdhocModel::kLabels));
  if (rng->Below(10) < 3) mask |= static_cast<uint8_t>(1u << rng->Below(4));
  return mask;
}

}  // namespace

AdhocModel::AdhocModel(size_t n, size_t r, uint64_t seed) {
  Rng rng(seed);
  nodes_.resize(n);
  out_.resize(n);
  in_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    Node& x = nodes_[i];
    x.labels = RandomLabels(&rng);
    x.id = static_cast<int64_t>(i);
    x.k = static_cast<int64_t>(rng.Below(kKeyRange));
    x.v = static_cast<int64_t>(rng.Below(1000));
  }
  while (rels_.size() < r) {
    auto s = static_cast<uint32_t>(rng.Below(n));
    auto t = static_cast<uint32_t>(rng.Below(n));
    if (s == t) continue;
    AddRel(s, t, static_cast<int>(rng.Below(kTypes)),
           static_cast<int64_t>(rng.Below(100)));
  }
  initial_nodes_ = n;
}

void AdhocModel::AddRel(uint32_t src, uint32_t tgt, int type, int64_t w) {
  out_[src].push_back(static_cast<uint32_t>(rels_.size()));
  in_[tgt].push_back(static_cast<uint32_t>(rels_.size()));
  rels_.push_back({src, tgt, type, w});
}

void AdhocModel::MakeRound(uint64_t r, Rng* rng,
                           std::vector<WriteOp>* out) const {
  const auto fresh = static_cast<int64_t>(initial_nodes_ + r);
  auto below = [&](uint64_t n) { return static_cast<int64_t>(rng->Below(n)); };
  WriteOp node{0, fresh, RandomLabels(rng), below(kKeyRange), below(1000), {}};
  node.text = "CREATE (" + LabelList(static_cast<uint8_t>(node.b)) +
              " {id: " + Cell(node.a) + ", k: " + Cell(node.c) +
              ", v: " + Cell(node.d) + "})";
  out->push_back(node);

  WriteOp rel{1, below(fresh + 1), 0, below(kTypes), below(100), {}};
  rel.b = (rel.a + 1 + below(static_cast<uint64_t>(fresh))) % (fresh + 1);
  rel.text = "MATCH (a {id: " + Cell(rel.a) + "}), (b {id: " + Cell(rel.b) +
             "}) CREATE (a)-[:" + kTypeNames[rel.c] + " {w: " + Cell(rel.d) +
             "}]->(b)";
  out->push_back(rel);

  WriteOp set{2, below(fresh + 1), below(1000), 0, 0, {}};
  set.text = "MATCH (n {id: " + Cell(set.a) + "}) SET n.v = " + Cell(set.b);
  out->push_back(set);
}

void AdhocModel::Apply(const WriteOp& w) {
  switch (w.cls) {
    case 0: {
      if (static_cast<size_t>(w.a) != nodes_.size()) {
        throw std::logic_error("ad-hoc writes applied out of order");
      }
      nodes_.push_back({static_cast<uint8_t>(w.b), w.a, w.c, w.d});
      out_.emplace_back();
      in_.emplace_back();
      break;
    }
    case 1:
      AddRel(static_cast<uint32_t>(w.a), static_cast<uint32_t>(w.b),
             static_cast<int>(w.c), w.d);
      break;
    default:
      nodes_[w.a].v = w.b;
      break;
  }
}

std::vector<std::pair<std::string, std::string>> AdhocModel::EndStateChecks()
    const {
  std::vector<std::pair<std::string, std::string>> checks;
  for (int l = 0; l < kLabels; ++l) {
    int64_t n = 0, ids = 0, ks = 0, vs = 0;
    for (const Node& x : nodes_) {
      if (!(x.labels & (1u << l))) continue;
      ++n;
      ids += x.id;
      ks += x.k;
      vs += x.v;
    }
    checks.emplace_back(std::string("MATCH (n:") + kLabelNames[l] +
                            ") RETURN count(n) AS n, sum(n.id) AS ids, "
                            "sum(n.k) AS ks, sum(n.v) AS vs",
                        JoinRows({Row({Cell(n), Cell(ids), Cell(ks),
                                       Cell(vs)})}));
  }
  for (int t = 0; t < kTypes; ++t) {
    int64_t n = 0, ws = 0, ends = 0;
    for (const Rel& r : rels_) {
      if (r.type != t) continue;
      ++n;
      ws += r.w;
      ends += nodes_[r.src].id * 3 + nodes_[r.tgt].id;
    }
    checks.emplace_back(std::string("MATCH (a)-[r:") + kTypeNames[t] +
                            "]->(b) RETURN count(r) AS n, sum(r.w) AS ws, "
                            "sum(a.id * 3 + b.id) AS ends",
                        JoinRows({Row({Cell(n), Cell(ws), Cell(ends)})}));
  }
  int64_t vs = 0;
  for (const Node& x : nodes_) vs += x.v;
  checks.emplace_back(
      "MATCH (n) RETURN count(n) AS n, sum(n.v) AS vs",
      JoinRows({Row({Cell(static_cast<int64_t>(nodes_.size())), Cell(vs)})}));
  return checks;
}

// --------------------------------------------------------- chain query

std::string ChainQuery::Render(bool shape) const {
  auto lit = [&](int64_t v) { return shape ? std::string("?") : Cell(v); };
  auto var = [](int v) {
    return v >= 100 ? "r" + std::to_string(v - 100) : "n" + std::to_string(v);
  };
  auto node = [&](size_t i) {
    std::string s = "(n" + std::to_string(i);
    if (labels[i] >= 0) s += std::string(":") + kLabelNames[labels[i]];
    if (i == 0 && anchor_inline) s += " {k: " + lit(conds[0].value) + "}";
    return s + ")";
  };
  std::string q = "MATCH " + node(0);
  for (size_t i = 0; i < types.size(); ++i) {
    std::string r = "[r" + std::to_string(i);
    if (types[i] >= 0) r += std::string(":") + kTypeNames[types[i]];
    r += "]";
    switch (dirs[i]) {
      case kOut: q += "-" + r + "->"; break;
      case kIn: q += "<-" + r + "-"; break;
      case kBoth: q += "-" + r + "-"; break;
    }
    q += node(i + 1);
  }
  static const char* const kCmp[] = {" = ", " <> ", " < ", " > "};
  std::string where;
  for (size_t c = anchor_inline ? 1 : 0; c < conds.size(); ++c) {
    if (!where.empty()) where += " AND ";
    where += var(conds[c].var) + "." + conds[c].prop + kCmp[conds[c].cmp] +
             lit(conds[c].value);
  }
  if (!where.empty()) q += " WHERE " + where;
  const std::string n = "n" + std::to_string(arg);
  switch (proj) {
    case kCount: return q + " RETURN count(*) AS c";
    case kCountDistinct: return q + " RETURN count(DISTINCT " + n + ") AS c";
    case kSum: return q + " RETURN sum(" + n + ".v) AS s";
    case kMin: return q + " RETURN min(" + n + ".v) AS m";
    case kMax: return q + " RETURN max(" + n + ".v) AS m";
    case kGroupK:
      return q + " RETURN " + n + ".k AS k, count(*) AS c ORDER BY k";
    case kTopW:
      return q + " RETURN " + n + ".id AS id, r0.w AS w ORDER BY w DESC, id "
                 "LIMIT 5";
    case kGroupType:
      return q + " RETURN type(r0) AS t, count(*) AS c ORDER BY t";
    case kFirstIds:
      return q + " RETURN " + n + ".id AS id ORDER BY id LIMIT 10";
  }
  return q;
}

std::string ChainQuery::Evaluate(const AdhocModel& m) const {
  const size_t hops = types.size();
  std::vector<uint32_t> nodes(hops + 1), rels(hops);
  auto holds = [&](const Cond& c, int64_t actual) {
    switch (c.cmp) {
      case kEq: return actual == c.value;
      case kNe: return actual != c.value;
      case kLt: return actual < c.value;
      case kGt: return actual > c.value;
    }
    return false;
  };
  auto node_ok = [&](size_t i, uint32_t x) {
    const AdhocModel::Node& nd = m.nodes()[x];
    if (labels[i] >= 0 && !(nd.labels & (1u << labels[i]))) return false;
    for (const Cond& c : conds) {
      if (c.var != static_cast<int>(i)) continue;
      if (!holds(c, c.prop == 'k' ? nd.k : nd.v)) return false;
    }
    return true;
  };
  auto rel_ok = [&](size_t i, uint32_t r) {
    const AdhocModel::Rel& rl = m.rels()[r];
    if (types[i] >= 0 && rl.type != types[i]) return false;
    for (size_t j = 0; j < i; ++j) {
      if (rels[j] == r) return false;  // relationship isomorphism
    }
    for (const Cond& c : conds) {
      if (c.var == static_cast<int>(100 + i) && !holds(c, rl.w)) return false;
    }
    return true;
  };

  int64_t count = 0, sum = 0, min = 0, max = 0;
  std::set<uint32_t> distinct;
  std::map<int64_t, int64_t> by_k;
  std::map<int, int64_t> by_type;
  std::vector<std::pair<int64_t, int64_t>> ordered;  // sort keys
  auto emit = [&] {
    const AdhocModel::Node& x = m.nodes()[nodes[arg]];
    if (count == 0 || x.v < min) min = x.v;
    if (count == 0 || x.v > max) max = x.v;
    ++count;
    sum += x.v;
    distinct.insert(nodes[arg]);
    ++by_k[x.k];
    if (hops > 0) {
      ++by_type[m.rels()[rels[0]].type];
      ordered.emplace_back(proj == kTopW ? -m.rels()[rels[0]].w : x.id, x.id);
    } else {
      ordered.emplace_back(x.id, x.id);
    }
  };
  auto extend = [&](auto&& self, size_t depth) -> void {
    if (depth == hops) {
      emit();
      return;
    }
    const uint32_t at = nodes[depth];
    auto step = [&](uint32_t r, uint32_t other) {
      if (!rel_ok(depth, r) || !node_ok(depth + 1, other)) return;
      rels[depth] = r;
      nodes[depth + 1] = other;
      self(self, depth + 1);
    };
    if (dirs[depth] != kIn) {
      for (uint32_t r : m.out()[at]) step(r, m.rels()[r].tgt);
    }
    if (dirs[depth] != kOut) {
      for (uint32_t r : m.in()[at]) step(r, m.rels()[r].src);
    }
  };
  for (uint32_t x = 0; x < m.nodes().size(); ++x) {
    if (!node_ok(0, x)) continue;
    nodes[0] = x;
    extend(extend, 0);
  }

  std::vector<std::string> rows;
  switch (proj) {
    case kCount: rows.push_back(Cell(count)); break;
    case kCountDistinct:
      rows.push_back(Cell(static_cast<int64_t>(distinct.size())));
      break;
    case kSum: rows.push_back(Cell(sum)); break;
    case kMin: rows.push_back(count ? Cell(min) : "null"); break;
    case kMax: rows.push_back(count ? Cell(max) : "null"); break;
    case kGroupK:
      for (const auto& [k, c] : by_k) rows.push_back(Row({Cell(k), Cell(c)}));
      break;
    case kGroupType:
      for (const auto& [t, c] : by_type) {
        rows.push_back(Row({kTypeNames[t], Cell(c)}));
      }
      break;
    case kTopW:
    case kFirstIds: {
      std::sort(ordered.begin(), ordered.end());
      for (size_t i = 0; i < ordered.size() && i < (proj == kTopW ? 5u : 10u);
           ++i) {
        rows.push_back(proj == kTopW ? Row({Cell(ordered[i].second),
                                            Cell(-ordered[i].first)})
                                     : Cell(ordered[i].second));
      }
      break;
    }
  }
  return JoinRows(rows);
}

std::vector<ChainQuery> AdhocHotQueries(size_t per_template, Rng* rng) {
  using Q = ChainQuery;
  std::vector<ChainQuery> out;
  for (size_t i = 0; i < per_template; ++i) {
    auto k = [&] { return static_cast<int64_t>(rng->Below(AdhocModel::kKeyRange)); };
    auto v = [&] { return static_cast<int64_t>(rng->Below(1000)); };
    auto w = [&] { return static_cast<int64_t>(rng->Below(100)); };
    out.push_back({{0, -1}, {0}, {Q::kOut}, {{0, 'k', Q::kEq, k()}}, true,
                   Q::kCount, 0});
    out.push_back({{1, 2}, {1}, {Q::kOut}, {{0, 'k', Q::kEq, k()}}, false,
                   Q::kGroupK, 1});
    out.push_back({{-1, -1, -1}, {2, 0}, {Q::kBoth, Q::kBoth},
                   {{0, 'k', Q::kEq, k()}}, true, Q::kCountDistinct, 2});
    out.push_back({{2, -1}, {-1}, {Q::kOut},
                   {{0, 'k', Q::kEq, k()}, {100, 'w', Q::kGt, w()}}, false,
                   Q::kTopW, 1});
    out.push_back({{3, 0}, {1}, {Q::kIn}, {{0, 'k', Q::kEq, k()}}, true,
                   Q::kSum, 1});
    out.push_back({{0, -1, -1}, {0, 1}, {Q::kOut, Q::kOut},
                   {{0, 'k', Q::kEq, k()}, {2, 'v', Q::kLt, v()}}, false,
                   Q::kCount, 0});
    out.push_back({{1}, {}, {}, {{0, 'k', Q::kEq, k()}}, false, Q::kFirstIds,
                   0});
    out.push_back({{-1, -1}, {-1}, {Q::kBoth}, {{0, 'k', Q::kEq, k()}}, true,
                   Q::kGroupType, 0});
  }
  return out;
}

std::vector<ChainQuery> AdhocTailQueries(size_t count,
                                         const std::vector<ChainQuery>& taken,
                                         Rng* rng) {
  using Q = ChainQuery;
  std::set<std::string> shapes;
  for (const ChainQuery& q : taken) shapes.insert(q.Shape());
  std::vector<ChainQuery> out;
  while (out.size() < count) {
    Q q;
    const size_t hops = 1 + rng->Below(3);
    for (size_t i = 0; i <= hops; ++i) {
      q.labels.push_back(rng->Below(2) ? -1 : static_cast<int>(rng->Below(4)));
    }
    for (size_t i = 0; i < hops; ++i) {
      q.types.push_back(rng->Below(3) ? static_cast<int>(rng->Below(3)) : -1);
      q.dirs.push_back(static_cast<Q::Dir>(rng->Below(3)));
    }
    // Anchor on the selective key so every statement stays small.
    q.anchor_inline = rng->Below(2) == 0;
    q.conds.push_back(
        {0, 'k', Q::kEq,
         static_cast<int64_t>(rng->Below(AdhocModel::kKeyRange))});
    for (size_t extra = rng->Below(3); extra > 0; --extra) {
      Q::Cond c;
      if (rng->Below(3) == 0) {
        c.var = 100 + static_cast<int>(rng->Below(hops));
        c.prop = 'w';
        c.cmp = rng->Below(2) ? Q::kGt : Q::kLt;
        c.value = static_cast<int64_t>(rng->Below(100));
      } else {
        c.var = 1 + static_cast<int>(rng->Below(hops));
        c.prop = rng->Below(3) ? 'v' : 'k';
        c.cmp = static_cast<Q::Cmp>(1 + rng->Below(3));
        c.value = static_cast<int64_t>(
            rng->Below(c.prop == 'v' ? 1000 : AdhocModel::kKeyRange));
      }
      q.conds.push_back(c);
    }
    q.proj = static_cast<Q::Proj>(rng->Below(9));
    q.arg = static_cast<int>(1 + rng->Below(hops));
    if (shapes.insert(q.Shape()).second) out.push_back(std::move(q));
  }
  return out;
}

}  // namespace cypherbench
