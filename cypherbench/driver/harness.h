// The run every workload shares: set-up, the timed closed loop of
// reads, the paced writer, the output checks against the model, and the
// recovery phase. A workload supplies the graph, the statements and the
// model; the harness drives gqlite's public Database/Session API.
#ifndef CYPHERBENCH_DRIVER_HARNESS_H_
#define CYPHERBENCH_DRIVER_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model.h"
#include "src/core/database.h"

namespace cypherbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the databases and the span file (created if absent).
  std::string work_dir;
  /// Negative self-test of the checks: "perturb" alters one expected
  /// read answer, "drop" leaves one committed write out of the model.
  /// Either must make the run fail.
  std::string self_test;
};

/// One read the driver sends, with the model's expected answer.
struct ReadOp {
  int cls = 0;
  /// The statement handle; null when the text is sent as is and
  /// prepared per operation (ad-hoc text).
  const gqlite::PreparedQuery* prepared = nullptr;
  std::string text;  // always set (the trace probes parse it)
  gqlite::ValueMap params;
  std::string expected;
  bool unordered = false;  // compare the rows as a set
};

/// How many rounds of writes a run commits, and how fast: paced at
/// `rate` commits per second, or back to back when `rate` is 0.
struct WritePlan {
  double rate = 0;
  uint64_t rounds = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::vector<std::string> ReadClasses() const = 0;
  virtual std::vector<std::string> WriteClasses() const = 0;
  virtual gqlite::EngineOptions Engine() const = 0;
  /// Reader sessions running the closed loop.
  virtual size_t Readers() const = 0;
  /// True when the writer runs alongside the readers in the timed
  /// phase; otherwise it runs after them, alone.
  virtual bool ConcurrentWrites() const = 0;
  virtual WritePlan Writes(double seconds) const = 0;

  /// Set-up: builds the model from the seed, then bulk-loads it.
  virtual void Generate(uint64_t seed) = 0;
  virtual void Load(gqlite::PropertyGraph* g) const = 0;

  /// Prepares statements and the read pool with expected answers, and
  /// the write schedule (`writes`, made with MakeRound). Not part of
  /// the measured set-up.
  virtual void PrepareReads(gqlite::Database* db) = 0;
  virtual void PrepareWrites(gqlite::Database* db,
                             const std::vector<WriteOp>& writes) = 0;
  virtual void MakeRound(uint64_t r, Rng* rng,
                         std::vector<WriteOp>* out) const = 0;
  /// The write class whose first write the "drop" self-test leaves out
  /// of the model (one whose absence later writes do not depend on).
  virtual int DroppableWriteClass() const = 0;

  /// The `i`-th read of reader `reader`. `acked` is how many writes of
  /// the schedule had been acknowledged when the read was chosen; a
  /// read may target them (read-your-acknowledged-writes check).
  virtual const ReadOp& NextRead(size_t reader, uint64_t i,
                                 uint64_t acked) = 0;
  virtual const gqlite::PreparedQuery* WriteStatement(int cls) const = 0;
  virtual gqlite::ValueMap WriteParams(const WriteOp& w) const = 0;
  virtual void ApplyWrite(const WriteOp& w) = 0;
  virtual std::vector<std::pair<std::string, std::string>> EndStateChecks()
      const = 0;
};

std::unique_ptr<Workload> MakeSnbInteractive();
std::unique_ptr<Workload> MakeSnbAnalytic();
std::unique_ptr<Workload> MakeAdhocText();

/// Renders a result table in the model's canonical form: cells joined
/// by '|', one line per row; rows sorted when `unordered`.
std::string Canonical(const gqlite::Table& table, bool unordered);

gqlite::ValueMap ToValueMap(const std::vector<NamedValue>& params);

/// Runs the workload and prints the report; the last line of standard
/// output is the result object. Returns the process exit code.
int RunWorkload(Workload* w, const RunOptions& opt);

}  // namespace cypherbench

#endif  // CYPHERBENCH_DRIVER_HARNESS_H_
