// cypherbench_driver: end-to-end Cypher workloads over gqlite's public
// Database/Session API.
//
//   cypherbench_driver --workload snb-interactive --seed 7 --seconds 10
//                      --trace 0 --work-dir DIR [--self-test perturb|drop]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (see ../README.md).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: cypherbench_driver --workload "
               "snb-interactive|snb-analytic|adhoc-text --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--self-test perturb|drop]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cypherbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--self-test") {
      if (value != "perturb" && value != "drop") {
        return Usage("bad --self-test");
      }
      opt.self_test = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (opt.work_dir.empty()) return Usage("--work-dir is required");

  std::unique_ptr<cypherbench::Workload> w;
  if (opt.workload == "snb-interactive") {
    w = cypherbench::MakeSnbInteractive();
  } else if (opt.workload == "snb-analytic") {
    w = cypherbench::MakeSnbAnalytic();
  } else if (opt.workload == "adhoc-text") {
    w = cypherbench::MakeAdhocText();
  } else {
    return Usage("unknown --workload");
  }
  return cypherbench::RunWorkload(w.get(), opt);
}
