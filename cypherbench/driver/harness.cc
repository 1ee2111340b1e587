#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "src/frontend/analyzer.h"
#include "src/frontend/lexer.h"
#include "src/frontend/parser.h"
#include "src/storage/checkpoint.h"
#include "src/storage/wal.h"
#include "trace.h"

namespace cypherbench {

namespace fs = std::filesystem;
using gqlite::Database;
using gqlite::PreparedQuery;
using gqlite::Session;
using gqlite::Status;
using gqlite::TxnMode;
using gqlite::Value;

namespace {

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// First failed check; a run with any is incorrect.
class Checks {
 public:
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok_) first_ = why;
    ok_ = false;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ok_;
  }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  bool ok_ = true;
  std::string first_;
};

/// Per-thread operation tallies, merged after the threads are joined.
struct Tally {
  std::vector<std::vector<double>> latency_ms;  // per op class
  /// (completion time in ns, latency in ms) of every operation.
  std::vector<std::pair<int64_t, double>> timeline;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(int cls, int64_t end_ns, double ms) {
    latency_ms[cls].push_back(ms);
    timeline.emplace_back(end_ns, ms);
  }
};

/// The q-quantile of a run's latencies, made robust to transient stalls
/// of the host: the operations, in completion order, are cut into up to
/// ten windows of at least 10 / (1 - q) operations each (so each window
/// has ten beyond its quantile), and the median of the windows'
/// quantiles is reported. With fewer operations it is the plain quantile.
double WindowedQuantile(std::vector<std::pair<int64_t, double>> ops,
                        double q) {
  std::sort(ops.begin(), ops.end());
  const auto min_window = static_cast<size_t>(10.0 / (1.0 - q) + 0.5);
  const size_t k = std::clamp<size_t>(ops.size() / min_window, 1, 10);
  std::vector<double> per_window;
  for (size_t w = 0; w < k; ++w) {
    std::vector<double> v;
    for (size_t i = ops.size() * w / k; i < ops.size() * (w + 1) / k; ++i) {
      v.push_back(ops[i].second);
    }
    per_window.push_back(Quantile(std::move(v), q));
  }
  return Quantile(std::move(per_window), 0.5);
}

int64_t FileSize(const std::string& path) {
  std::error_code ec;
  auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

/// A counter from /proc/self/io or /proc/self/status ("key:  value").
int64_t ProcField(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stoll(line.substr(key.size() + 1));
    }
  }
  return 0;
}

/// Operation ids: the writer's are OpId(0, i), reader r's OpId(r + 1, i),
/// and the set-up and recovery steps' OpId(kStepOps, n).
uint64_t OpId(size_t thread, uint64_t i) {
  return (static_cast<uint64_t>(thread) << 40) | i;
}
constexpr size_t kStepOps = 0xffff;

std::string CellText(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_int()) return std::to_string(v.AsInt());
  if (v.is_string()) return std::string(v.AsString());
  if (v.is_bool()) return v.AsBool() ? "true" : "false";
  if (v.is_float()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v.AsFloat());
    return buf;
  }
  return "<unsupported value>";
}

/// Calls the frontend and the planner on a read's text, outside the
/// operation's own timing (traced runs only, every kProbeEvery-th read).
void Probe(Database* db, const ReadOp& op, ThreadTrace* tt, uint64_t op_id) {
  Span probe(tt, "probe", Layer::kDriver, op_id);
  {
    Span s(tt, "frontend.tokenize", Layer::kFrontend, op_id);
    (void)gqlite::Tokenize(op.text);
  }
  std::optional<gqlite::ast::Query> q;
  {
    Span s(tt, "frontend.parse", Layer::kFrontend, op_id);
    auto parsed = gqlite::ParseQuery(op.text);
    if (parsed.ok()) q.emplace(std::move(*parsed));
  }
  if (q) {
    Span s(tt, "frontend.analyze", Layer::kFrontend, op_id);
    (void)gqlite::Analyze(*q);
  }
  const int64_t p0 = NowNs();
  {
    Span s(tt, "frontend.prepare", Layer::kFrontend, op_id);
    (void)db->Prepare(op.text);
  }
  const int64_t p1 = NowNs();
  {
    Span s(tt, "plan.explain", Layer::kPlan, op_id);
    (void)db->Explain(op.text, op.params);
  }
  const int64_t p2 = NowNs();
  // Explain parses, analyzes and plans; Prepare parses, analyzes and
  // canonicalizes. Their difference is the planner's share.
  tt->Sample("plan.plan_us", static_cast<double>((p2 - p1) - (p1 - p0)) / 1e3);
}
constexpr uint64_t kProbeEvery = 8;

/// One read transaction: Begin(kRead), [Prepare], Execute, Commit.
Status RunRead(Database* db, Session* session, const ReadOp& op,
               ThreadTrace* tt, uint64_t op_id, const char* name,
               std::string* canonical) {
  Span s(tt, name, Layer::kDriver, op_id);
  Status st = [&] {
    Span b(tt, "core.begin_read", Layer::kCore, op_id);
    return session->Begin(TxnMode::kRead);
  }();
  if (!st.ok()) return st;
  const PreparedQuery* prepared = op.prepared;
  PreparedQuery local;
  if (prepared == nullptr) {
    Span p(tt, "frontend.prepare", Layer::kFrontend, op_id);
    auto r = db->Prepare(op.text);
    if (!r.ok()) {
      (void)session->Rollback();
      return r.status();
    }
    local = *r;
    prepared = &local;
  }
  auto res = [&] {
    Span e(tt, "plan.execute", Layer::kPlan, op_id);
    return session->Execute(*prepared, op.params);
  }();
  {
    Span c(tt, "core.commit_read", Layer::kCore, op_id);
    st = session->Commit();
  }
  if (!res.ok()) return res.status();
  *canonical = Canonical(res->table, op.unordered);
  return st;
}

/// One write transaction: Begin(kWrite), [Prepare], Execute, Commit.
Status RunWrite(Database* db, Session* session, const Workload& w,
                const WriteOp& op, const gqlite::ValueMap& params,
                ThreadTrace* tt, uint64_t op_id, const char* name,
                int64_t* entities) {
  Span s(tt, name, Layer::kDriver, op_id);
  Status st = [&] {
    Span b(tt, "core.begin_write", Layer::kCore, op_id);
    return session->Begin(TxnMode::kWrite);
  }();
  if (!st.ok()) return st;
  const PreparedQuery* prepared = w.WriteStatement(op.cls);
  PreparedQuery local;
  if (!op.text.empty()) {
    Span p(tt, "frontend.prepare", Layer::kFrontend, op_id);
    auto r = db->Prepare(op.text);
    if (!r.ok()) {
      (void)session->Rollback();
      return r.status();
    }
    local = *r;
    prepared = &local;
  }
  auto res = [&] {
    Span e(tt, "update.execute", Layer::kUpdate, op_id);
    return session->Execute(*prepared, params);
  }();
  if (!res.ok()) {
    (void)session->Rollback();
    return res.status();
  }
  const gqlite::UpdateStats& u = res->stats;
  *entities += u.nodes_created + u.nodes_deleted + u.rels_created +
               u.rels_deleted + u.properties_set + u.labels_added +
               u.labels_removed;
  Span c(tt, "storage.commit", Layer::kStorage, op_id);
  return session->Commit();
}

/// The timed phase runs until its deadline, and on past it until this
/// many reads have completed, so that every run's p99 (printed on a `#`
/// line) rests on at least ten reads beyond it.
constexpr uint64_t kMinReads = 1000;

struct ReaderArgs {
  Database* db;
  Workload* w;
  size_t reader;
  int64_t deadline_ns;
  std::atomic<uint64_t>* reads_done;
  const std::atomic<uint64_t>* acked;
  ThreadTrace* tt;
  Checks* checks;
  const std::vector<std::string>* op_names;
  bool perturb;
  Tally* tally;
};

void ReaderLoop(const ReaderArgs& a) {
  if (a.tt) a.tt->set_phase(Phase::kTimed);
  auto session = a.db->CreateSession();
  std::string got;
  for (uint64_t i = 0;
       NowNs() < a.deadline_ns ||
       a.reads_done->load(std::memory_order_relaxed) < kMinReads;
       ++i) {
    const ReadOp& op =
        a.w->NextRead(a.reader, i, a.acked->load(std::memory_order_acquire));
    const uint64_t id = OpId(a.reader + 1, i);
    const int64_t t0 = NowNs();
    Status st = RunRead(a.db, session.get(), op, a.tt, id,
                        (*a.op_names)[op.cls].c_str(), &got);
    const int64_t t1 = NowNs();
    ++a.tally->attempted;
    if (!st.ok()) {
      ++a.tally->failed;
      std::fprintf(stderr, "read %s failed: %s\n",
                   (*a.op_names)[op.cls].c_str(), st.ToString().c_str());
      continue;
    }
    a.tally->Record(op.cls, t1, static_cast<double>(t1 - t0) / 1e6);
    a.reads_done->fetch_add(1, std::memory_order_relaxed);
    const bool perturbed = a.perturb && a.reader == 0 && i == 0;
    if (got != (perturbed ? op.expected + "perturbed\n" : op.expected)) {
      a.checks->Fail("wrong answer to " + (*a.op_names)[op.cls] + ": " +
                     op.text + "\n  expected:\n" + op.expected +
                     "  got:\n" + got);
    }
    if (a.tt && i % kProbeEvery == 0) Probe(a.db, op, a.tt, id);
  }
}

constexpr int64_t kSpinNs = 2000000;

struct WriterArgs {
  Database* db;
  const Workload* w;
  const std::vector<WriteOp>* ops;
  const std::vector<gqlite::ValueMap>* params;
  double rate;
  int64_t start_ns;
  std::atomic<uint64_t>* acked;
  std::vector<char>* committed;
  ThreadTrace* tt;
  Phase phase;
  const std::vector<std::string>* op_names;
  Tally* tally;
  std::vector<double>* lateness_ms;
  int64_t* entities;
};

void WriterLoop(const WriterArgs& a) {
  if (a.tt) a.tt->set_phase(a.phase);
  auto session = a.db->CreateSession();
  for (size_t i = 0; i < a.ops->size(); ++i) {
    const int64_t due =
        a.rate > 0 ? a.start_ns + static_cast<int64_t>(static_cast<double>(i) *
                                                       1e9 / a.rate)
                   : NowNs();
    // Sleep to shortly before the due time, then spin: waking a thread
    // from sleep can take milliseconds on a busy VM host, which would
    // count as write latency although the database did nothing.
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due - kSpinNs)));
    while (NowNs() < due) {
    }
    const int64_t begin = NowNs();
    a.lateness_ms->push_back(static_cast<double>(begin - due) / 1e6);
    const WriteOp& op = (*a.ops)[i];
    Status st = RunWrite(a.db, session.get(), *a.w, op, (*a.params)[i], a.tt,
                         OpId(0, i), (*a.op_names)[op.cls].c_str(),
                         a.entities);
    const int64_t end = NowNs();
    ++a.tally->attempted;
    if (st.ok()) {
      (*a.committed)[i] = 1;
      a.tally->Record(op.cls, end, static_cast<double>(end - due) / 1e6);
    } else {
      ++a.tally->failed;
      std::fprintf(stderr, "write %s failed: %s\n",
                   (*a.op_names)[op.cls].c_str(), st.ToString().c_str());
    }
    a.acked->store(i + 1, std::memory_order_release);
  }
}

/// Runs each end-state statement and compares its row with the model's.
void CheckState(Database* db,
                const std::vector<std::pair<std::string, std::string>>& want,
                const std::string& when, Checks* checks) {
  for (const auto& [text, expected] : want) {
    auto r = db->Execute(text);
    if (!r.ok()) {
      checks->Fail(when + ": " + text + " failed: " + r.status().ToString());
      continue;
    }
    std::string got = Canonical(r->table, false);
    if (got != expected) {
      checks->Fail(when + ": " + text + "\n  expected: " + expected +
                   "  got: " + got);
    }
  }
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit});
  }
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      out << (i ? ", " : "") << "\"" << metrics_[i].name
          << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics_[i].unit
          << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

Database OpenOrDie(const std::string& dir, const gqlite::EngineOptions& o) {
  auto opened = Database::Open(dir, o);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(*opened);
}

void OrDie(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(3);
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Seconds the interleaved recovery rounds run for, at least three rounds.
constexpr double kRecoverySeconds = 6.0;

/// Median time of a step repeated at least three times and, when it is
/// quick, until about two seconds have been spent on it (at most 401
/// times), so that a short step is neither one noisy sample nor measured
/// within one brief stall of the host. `once()` returns seconds.
template <typename F>
double MedianOfRepeats(F&& once) {
  std::vector<double> t;
  double total = 0;
  for (int i = 0; i < 3 || (total < 2.0 && i < 401); ++i) {
    t.push_back(once());
    total += t.back();
  }
  return Quantile(t, 0.5);
}

/// Measured cost of recording one span, for the overhead estimate.
double SpanCostNs() {
  ThreadTrace t(0);
  t.set_phase(Phase::kSetup);
  constexpr int kN = 100000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kN; ++i) Span s(&t, "calibrate", Layer::kDriver, 0);
  return static_cast<double>(NowNs() - t0) / kN;
}

}  // namespace

std::string Canonical(const gqlite::Table& table, bool unordered) {
  std::vector<std::string> rows;
  rows.reserve(table.NumRows());
  for (const gqlite::ValueList& row : table.rows()) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) line += '|';
      line += CellText(row[i]);
    }
    rows.push_back(std::move(line));
  }
  if (unordered) std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

gqlite::ValueMap ToValueMap(const std::vector<NamedValue>& params) {
  gqlite::ValueMap m;
  for (const NamedValue& p : params) {
    m[p.key] = p.is_string ? Value::String(p.s) : Value::Int(p.i);
  }
  return m;
}

int RunWorkload(Workload* w, const RunOptions& opt) {
  const int64_t origin = NowNs();
  Tracer tracer(opt.trace);
  ThreadTrace* main_tt = tracer.NewThread();
  Checks checks;
  std::error_code ec;
  fs::create_directories(opt.work_dir, ec);
  const std::string dir = opt.work_dir + "/db-" + opt.workload + "-" +
                          std::to_string(::getpid());
  const std::string wal_path = dir + "/wal.log";
  const std::string ckpt_path = dir + "/checkpoint.gql";
  const gqlite::EngineOptions engine = w->Engine();

  // ---- set-up: generate, open, bulk-load, checkpoint; repeated.
  std::optional<Database> db;
  uint64_t step = 0;  // op ids of the set-up and recovery steps
  const double setup_s = MedianOfRepeats([&] {
    if (db) {
      OrDie(db->Close(), "close");
      db.reset();
    }
    fs::remove_all(dir, ec);
    const uint64_t id = OpId(kStepOps, step++);
    const int64_t t0 = NowNs();
    w->Generate(opt.seed);
    db.emplace(OpenOrDie(dir, engine));
    {
      Span s(main_tt, "graph.load", Layer::kGraph, id);
      w->Load(&db->graph());
    }
    {
      Span s(main_tt, "storage.checkpoint", Layer::kStorage, id);
      OrDie(db->Checkpoint(), "checkpoint");
    }
    return Seconds(t0, NowNs());
  });

  // ---- statements, expected answers and the write schedule.
  const WritePlan plan = w->Writes(opt.seconds);
  std::vector<WriteOp> writes;
  Rng write_rng(opt.seed ^ 0x5eedf00dULL);
  for (uint64_t r = 0; r < plan.rounds; ++r) w->MakeRound(r, &write_rng, &writes);
  w->PrepareReads(&*db);
  w->PrepareWrites(&*db, writes);
  std::vector<gqlite::ValueMap> write_params;
  for (const WriteOp& op : writes) write_params.push_back(w->WriteParams(op));

  std::vector<std::string> read_names, write_names;
  for (const std::string& c : w->ReadClasses()) read_names.push_back("op." + c);
  for (const std::string& c : w->WriteClasses()) {
    write_names.push_back("op." + c);
  }

  gqlite::CypherEngine& eng = db->engine();
  const gqlite::PlanCacheStats cache0 = eng.plan_cache_stats();
  const gqlite::BatchStats exec0 = eng.exec_stats();
  const gqlite::CypherEngine::ParallelStats par0 = eng.parallel_stats();

  // ---- timed phase: closed-loop readers (and the paced writer).
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> reads_done{0};
  std::vector<char> committed(writes.size(), 0);
  std::vector<Tally> reader_tally(w->Readers());
  Tally writer_tally;
  writer_tally.latency_ms.resize(write_names.size());
  std::vector<double> lateness_ms;
  int64_t entities = 0;
  int64_t wal0 = 0, io0 = 0, wal1 = 0, io1 = 0;

  auto writer_args = [&](int64_t start, ThreadTrace* tt, Phase phase) {
    return WriterArgs{&*db,          w,          &writes,       &write_params,
                      plan.rate,     start,      &acked,        &committed,
                      tt,            phase,      &write_names,  &writer_tally,
                      &lateness_ms,  &entities};
  };

  if (main_tt) main_tt->set_phase(Phase::kTimed);
  const bool concurrent = w->ConcurrentWrites();
  if (concurrent) {
    wal0 = FileSize(wal_path);
    io0 = ProcField("/proc/self/io", "wchar");
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (size_t r = 0; r < w->Readers(); ++r) {
      reader_tally[r].latency_ms.resize(read_names.size());
      threads.emplace_back(ReaderLoop,
                           ReaderArgs{&*db, w, r, deadline, &reads_done, &acked,
                                      tracer.NewThread(), &checks, &read_names,
                                      opt.self_test == "perturb",
                                      &reader_tally[r]});
    }
    if (concurrent) {
      threads.emplace_back(WriterLoop,
                           writer_args(start, tracer.NewThread(), Phase::kTimed));
    }
    for (std::thread& t : threads) t.join();
  }
  const int64_t timed_end = NowNs();
  const gqlite::PlanCacheStats cache1 = eng.plan_cache_stats();
  const gqlite::BatchStats exec1 = eng.exec_stats();
  const gqlite::CypherEngine::ParallelStats par1 = eng.parallel_stats();

  // ---- write phase, when the workload's writes do not overlap its reads.
  if (!concurrent) {
    wal0 = FileSize(wal_path);
    io0 = ProcField("/proc/self/io", "wchar");
    WriterLoop(writer_args(NowNs(), main_tt, Phase::kWrite));
  }
  wal1 = FileSize(wal_path);
  io1 = ProcField("/proc/self/io", "wchar");
  if (main_tt) main_tt->set_phase(Phase::kRecovery);

  // ---- the model takes the acknowledged writes, in commit order.
  const int drop = opt.self_test == "drop" ? w->DroppableWriteClass() : -1;
  bool dropped = false;
  uint64_t commits = 0;
  for (size_t i = 0; i < writes.size(); ++i) {
    if (!committed[i]) continue;
    ++commits;
    if (!dropped && writes[i].cls == drop) {
      dropped = true;
      continue;
    }
    w->ApplyWrite(writes[i]);
  }
  const auto want = w->EndStateChecks();
  CheckState(&*db, want, "after the run", &checks);
  // Peak memory of set-up, reads and writes. The recovery rounds below
  // open two databases in turn hundreds of times; with them, ten
  // adhoc-text runs peaked at 27.1-29.8 MiB, in two clusters.
  const int64_t peak_rss_kib = ProcField("/proc/self/status", "VmHWM");

  // ---- recovery: close, reopen (WAL replay), checkpoint, reopen.
  OrDie(db->Close(), "close");
  db.reset();
  double wal_read_us = 0, wal_apply_us = 0, ckpt_read_us = 0;
  const int64_t ckpt_bytes = FileSize(ckpt_path);
  if (main_tt) {
    // The recovery steps Database::Open performs, called one by one.
    int64_t t0 = NowNs();
    auto wal = gqlite::ReadWal(wal_path);
    int64_t t1 = NowNs();
    auto base = gqlite::ReadCheckpointFile(ckpt_path);
    int64_t t2 = NowNs();
    if (!wal.ok() || !base.ok()) {
      checks.Fail("cannot read the WAL or the checkpoint directly");
    } else {
      for (const gqlite::WalBatch& b : wal->batches) {
        if (b.lsn <= base->last_lsn) continue;
        Status st = gqlite::ApplyWalBatch(base->graph.get(), b);
        if (!st.ok()) {
          checks.Fail("ApplyWalBatch: " + st.ToString());
          break;
        }
      }
    }
    int64_t t3 = NowNs();
    wal_read_us = static_cast<double>(t1 - t0) / 1e3;
    ckpt_read_us = static_cast<double>(t2 - t1) / 1e3;
    wal_apply_us = static_cast<double>(t3 - t2) / 1e3;
  }
  // The three recovery figures are taken in interleaved rounds: reopen
  // `dir` (the set-up checkpoint and the run's WAL, so the reopen replays
  // it; a reopen that writes nothing leaves both files as they were),
  // then reopen `ckpt_dir` (a copy checkpointed after the run, so its WAL
  // is empty) and checkpoint it again. Each median thus covers the same
  // stretch of several seconds, and a slow second of the host moves all
  // three a little rather than one of them a lot.
  const std::string ckpt_dir = dir + "-ckpt";
  fs::remove_all(ckpt_dir, ec);
  fs::create_directories(ckpt_dir, ec);
  for (const char* file : {"/checkpoint.gql", "/wal.log"}) {
    if (!fs::copy_file(dir + file, ckpt_dir + file, ec)) {
      std::fprintf(stderr, "cannot copy %s: %s\n", file, ec.message().c_str());
      std::exit(3);
    }
  }
  db.emplace(OpenOrDie(ckpt_dir, engine));
  OrDie(db->Checkpoint(), "checkpoint");
  OrDie(db->Close(), "close");
  db.reset();
  std::vector<double> wal_t, ckpt_t, reopen_t;
  double spent = 0;
  for (int round = 0; round < 3 || (spent < kRecoverySeconds && round < 1000);
       ++round) {
    const int64_t t0 = NowNs();
    {
      Span s(main_tt, "storage.open_replay", Layer::kStorage,
             OpId(kStepOps, step++));
      db.emplace(OpenOrDie(dir, engine));
    }
    wal_t.push_back(Seconds(t0, NowNs()));
    if (round == 0) {
      CheckState(&*db, want, "after reopening from the WAL", &checks);
    }
    OrDie(db->Close(), "close");
    db.reset();

    const int64_t t1 = NowNs();
    {
      Span s(main_tt, "storage.open_checkpoint", Layer::kStorage,
             OpId(kStepOps, step++));
      db.emplace(OpenOrDie(ckpt_dir, engine));
    }
    const int64_t t2 = NowNs();
    {
      Span s(main_tt, "storage.checkpoint", Layer::kStorage,
             OpId(kStepOps, step++));
      OrDie(db->Checkpoint(), "checkpoint");
    }
    const int64_t t3 = NowNs();
    reopen_t.push_back(Seconds(t1, t2));
    ckpt_t.push_back(Seconds(t2, t3));
    OrDie(db->Close(), "close");
    db.reset();
    spent += wal_t.back() + reopen_t.back() + ckpt_t.back();
  }
  const double recover_wal_s = Quantile(wal_t, 0.5);
  const double checkpoint_s = Quantile(ckpt_t, 0.5);
  const double recover_ckpt_s = Quantile(reopen_t, 0.5);
  // The last of the timed checkpoints is the one this reopen reads.
  db.emplace(OpenOrDie(ckpt_dir, engine));
  CheckState(&*db, want, "after reopening from the checkpoint", &checks);
  OrDie(db->Close(), "close");
  db.reset();
  fs::remove_all(dir, ec);
  fs::remove_all(ckpt_dir, ec);

  // ---- tallies.
  std::vector<std::pair<int64_t, double>> reads;
  uint64_t attempted = writer_tally.attempted, failed = writer_tally.failed;
  uint64_t timed_ops = concurrent ? writer_tally.attempted : 0;
  std::vector<std::vector<double>> per_read(read_names.size());
  for (const Tally& t : reader_tally) {
    attempted += t.attempted;
    failed += t.failed;
    timed_ops += t.attempted - t.failed;
    reads.insert(reads.end(), t.timeline.begin(), t.timeline.end());
    for (size_t c = 0; c < t.latency_ms.size(); ++c) {
      per_read[c].insert(per_read[c].end(), t.latency_ms[c].begin(),
                         t.latency_ms[c].end());
    }
  }
  const auto& writes_ms = writer_tally.timeline;
  const double elapsed = Seconds(start, timed_end);

  std::printf("# workload %s seed %llu: %.1f s timed, %zu reads, %zu writes\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              elapsed, reads.size(), writes_ms.size());
  std::printf("#   reads windowed p50=%.3f p90=%.3f p95=%.3f p99=%.3f ms\n",
              WindowedQuantile(reads, 0.5), WindowedQuantile(reads, 0.9),
              WindowedQuantile(reads, 0.95), WindowedQuantile(reads, 0.99));
  for (size_t c = 0; c < read_names.size(); ++c) {
    std::printf("#   %-16s n=%-7zu p50=%.3f ms p99=%.3f ms\n",
                read_names[c].c_str(), per_read[c].size(),
                Quantile(per_read[c], 0.5), Quantile(per_read[c], 0.99));
  }
  for (size_t c = 0; c < write_names.size(); ++c) {
    const auto& v = writer_tally.latency_ms[c];
    std::printf("#   %-16s n=%-7zu p50=%.3f ms p99=%.3f ms\n",
                write_names[c].c_str(), v.size(), Quantile(v, 0.5),
                Quantile(v, 0.99));
  }

  Report report;
  if (!opt.trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("throughput_ops_s", static_cast<double>(timed_ops) / elapsed,
               "ops/s");
    report.Add("read_p50_ms", WindowedQuantile(reads, 0.5), "ms");
    report.Add("read_p95_ms", WindowedQuantile(reads, 0.95), "ms");
    report.Add("recover_wal_s", recover_wal_s, "s");
    report.Add("checkpoint_s", checkpoint_s, "s");
    report.Add("recover_ckpt_s", recover_ckpt_s, "s");
    report.Add("wal_bytes_per_commit",
               static_cast<double>(wal1 - wal0) /
                   static_cast<double>(std::max<uint64_t>(commits, 1)),
               "B");
    report.Add("peak_rss_mib",
               static_cast<double>(peak_rss_kib) / 1024.0,
               "MiB");
  } else {
    const SpanSummary sum = Summarize(tracer);
    auto mean = [&](const char* name) {
      auto it = sum.durations_us.find(name);
      return it == sum.durations_us.end() ? 0.0 : Mean(it->second);
    };
    auto p99 = [&](const char* name) {
      auto it = sum.durations_us.find(name);
      return it == sum.durations_us.end() ? 0.0 : Quantile(it->second, 0.99);
    };
    std::vector<double> plan_us;
    for (const auto& t : tracer.threads()) {
      auto it = t->samples().find("plan.plan_us");
      if (it != t->samples().end()) {
        plan_us.insert(plan_us.end(), it->second.begin(), it->second.end());
      }
    }
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double misses = static_cast<double>(cache1.misses - cache0.misses);
    const double rows = static_cast<double>(exec1.rows - exec0.rows);
    const double batches = static_cast<double>(exec1.batches - exec0.batches);
    uint64_t fallbacks = 0;
    for (const auto& [reason, n] : par1.serial_reasons) {
      auto it = par0.serial_reasons.find(reason);
      fallbacks += n - (it == par0.serial_reasons.end() ? 0 : it->second);
    }
    report.Add("frontend.tokenize_us", mean("frontend.tokenize"), "us");
    report.Add("frontend.parse_us", mean("frontend.parse"), "us");
    report.Add("frontend.analyze_us", mean("frontend.analyze"), "us");
    report.Add("frontend.prepare_us", mean("frontend.prepare"), "us");
    report.Add("plan.plan_us", Mean(plan_us), "us");
    report.Add("plan.cache_hits", hits, "count");
    report.Add("plan.cache_misses", misses, "count");
    report.Add("plan.cache_evictions",
               static_cast<double>(cache1.evictions - cache0.evictions),
               "count");
    report.Add("plan.cache_invalidations",
               static_cast<double>(cache1.invalidations - cache0.invalidations),
               "count");
    report.Add("plan.cache_hit_ratio", hits / std::max(hits + misses, 1.0),
               "ratio");
    report.Add("plan.execute_us", mean("plan.execute"), "us");
    report.Add("plan.rows_out", rows, "count");
    report.Add("plan.batches", batches, "count");
    report.Add("plan.rows_per_batch", rows / std::max(batches, 1.0), "rows");
    report.Add("exec.parallel_queries",
               static_cast<double>(par1.queries - par0.queries), "count");
    report.Add("exec.morsels", static_cast<double>(par1.morsels - par0.morsels),
               "count");
    report.Add("exec.merge_tasks",
               static_cast<double>(par1.merge_tasks - par0.merge_tasks),
               "count");
    report.Add("exec.serial_fallbacks", static_cast<double>(fallbacks),
               "count");
    report.Add("core.begin_read_us", mean("core.begin_read"), "us");
    report.Add("core.begin_read_p99_us", p99("core.begin_read"), "us");
    report.Add("core.begin_write_us", mean("core.begin_write"), "us");
    report.Add("update.execute_us", mean("update.execute"), "us");
    report.Add("update.execute_p99_us", p99("update.execute"), "us");
    report.Add("update.entities_written", static_cast<double>(entities),
               "count");
    report.Add("storage.commit_us", mean("storage.commit"), "us");
    report.Add("storage.commit_p99_us", p99("storage.commit"), "us");
    report.Add("storage.wal_bytes", static_cast<double>(wal1 - wal0), "B");
    report.Add("storage.io_write_bytes", static_cast<double>(io1 - io0), "B");
    report.Add("storage.wal_read_us", wal_read_us, "us");
    report.Add("storage.wal_apply_us", wal_apply_us, "us");
    report.Add("storage.checkpoint_read_us", ckpt_read_us, "us");
    report.Add("storage.checkpoint_bytes", static_cast<double>(ckpt_bytes),
               "B");
    report.Add("driver.write_p50_ms", WindowedQuantile(writes_ms, 0.5), "ms");
    report.Add("driver.write_p95_ms", WindowedQuantile(writes_ms, 0.95), "ms");
    report.Add("driver.write_lateness_ms", Quantile(lateness_ms, 0.99), "ms");

    const std::string spans_path =
        opt.work_dir + "/spans-" + opt.workload + ".tsv";
    if (!WriteSpans(tracer, origin, spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
    double op_us = 0;
    for (const auto& [name, d] : sum.durations_us) {
      if (name.rfind("op.", 0) == 0) {
        for (double x : d) op_us += x;
      }
    }
    const double span_ns = SpanCostNs();
    std::printf("# trace: %zu spans in the measured phases, written to %s\n",
                sum.spans, spans_path.c_str());
    std::printf(
        "# trace: recording costs %.0f ns per span, about %.2f%% of the "
        "operations' own time (probe calls excluded)\n",
        span_ns,
        op_us > 0 ? 100.0 * span_ns * static_cast<double>(sum.spans) /
                        (op_us * 1e3)
                  : 0.0);
    for (const auto& [layer, us] : sum.self_us) {
      std::printf("#   self time %-9s %10.1f ms, %8.1f us per operation\n",
                  layer.c_str(), us / 1e3,
                  us / static_cast<double>(std::max<uint64_t>(attempted, 1)));
    }
  }

  const bool correct = checks.ok();
  if (!correct) std::fprintf(stderr, "CHECK FAILED: %s\n", checks.first().c_str());
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace cypherbench
