// ho_compile: operational spec in, predicate + lattice placement out.
//
// Each spec (command-line argument, or one per stdin line when no specs
// are given) is parsed, compiled to a predicate, and placed against the
// hand-written reference zoo by the exact submodel engine; the result is
// one JSON line per spec on stdout (schema "rrfd-ho-v1"):
//
//   {"schema":"rrfd-ho-v1","name":"...","spec":"loss_cap(1)",
//    "prunable":true,"symmetric":true,"n":3,"rounds":1,
//    "placement":[{"vs":"async(1)","implies":true,"implied_by":true},...]}
//
// Usage:
//   ho_compile [--n N] [--rounds R] [--threads T] [--no-place] [--list]
//              [SPEC ...]
//
//   --n / --rounds   system size / pattern depth for placement (3 / 1)
//   --threads        sweep executor workers (default: RRFD_SWEEP_THREADS
//                    via the executor, serial shard order either way)
//   --no-place       skip the exhaustive placement (parse + traits only)
//   --list           print the standard catalog instead of reading specs
//
// Output is deterministic for a given invocation: placement rows follow
// the fixed zoo order and the engine's shard splice is thread-count
// independent. Exit codes: 0 ok, 1 usage error, 2 bad spec.
#include <iostream>
#include <string>
#include <vector>

#include "core/submodel.h"
#include "ho/catalog.h"
#include "ho/compile.h"
#include "ho/parse.h"
#include "ho/spec.h"
#include "sweep/submodel_parallel.h"
#include "util/check.h"
#include "util/json.h"

namespace {

using namespace rrfd;

struct Args {
  int n = 3;
  core::Round rounds = 1;
  int threads = 0;  // 0 = executor default (RRFD_SWEEP_THREADS)
  bool place = true;
  bool list = false;
  std::vector<std::string> specs;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--n N] [--rounds R] [--threads T] [--no-place] [--list]\n"
               "          [SPEC ...]\n"
               "Specs are read from stdin (one per line, '#' comments) when "
               "none are given.\n";
  return 1;
}

bool parse_int_arg(const std::string& value, int min, int* out) {
  try {
    *out = std::stoi(value);
  } catch (const std::exception&) {
    return false;
  }
  return *out >= min;
}

/// Compiles one spec and prints its JSON line. Returns false (after an
/// error line on stderr) when the spec does not parse or validate.
bool emit(const std::string& text, const std::string& name, const Args& args) {
  core::PredicatePtr pred;
  std::string canonical;
  try {
    const ho::Spec spec = ho::parse_spec(text);
    canonical = ho::to_text(spec);
    pred = ho::compile(spec, name);
  } catch (const ContractViolation& e) {
    std::cerr << "ho_compile: " << e.what() << "\n";
    return false;
  }

  std::cout << "{\"schema\":\"rrfd-ho-v1\",\"name\":\""
            << json_escape(pred->name()) << "\",\"spec\":\""
            << json_escape(canonical) << "\",\"prunable\":"
            << (pred->prunable() ? "true" : "false")
            << ",\"symmetric\":" << (pred->symmetric() ? "true" : "false");
  if (args.place) {
    core::EnumOptions options;
    options.runner = args.threads > 0 ? sweep::shard_runner(args.threads)
                                      : sweep::shard_runner();
    std::cout << ",\"n\":" << args.n << ",\"rounds\":" << args.rounds
              << ",\"placement\":[";
    bool first = true;
    for (const ho::Placement& p :
         ho::place_in_zoo(*pred, args.n, args.rounds, options)) {
      if (!first) std::cout << ',';
      std::cout << "{\"vs\":\"" << json_escape(p.vs) << "\",\"implies\":"
                << (p.implies ? "true" : "false") << ",\"implied_by\":"
                << (p.implied_by ? "true" : "false") << "}";
      first = false;
    }
    std::cout << "]";
  }
  std::cout << "}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--n") {
      const char* v = next();
      if (v == nullptr || !parse_int_arg(v, 1, &args.n)) return usage(argv[0]);
    } else if (arg == "--rounds") {
      const char* v = next();
      if (v == nullptr || !parse_int_arg(v, 1, &args.rounds)) {
        return usage(argv[0]);
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr || !parse_int_arg(v, 1, &args.threads)) {
        return usage(argv[0]);
      }
    } else if (arg == "--no-place") {
      args.place = false;
    } else if (arg == "--list") {
      args.list = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      args.specs.push_back(arg);
    }
  }

  if (args.list) {
    for (const ho::DerivedModel& m : ho::standard_catalog()) {
      if (!emit(m.spec, m.name, args)) return 2;
    }
    return 0;
  }

  if (args.specs.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      const std::size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      args.specs.push_back(line);
    }
  }
  if (args.specs.empty()) return usage(argv[0]);

  for (const std::string& text : args.specs) {
    if (!emit(text, /*name=*/"", args)) return 2;
  }
  return 0;
}
