// edkbench: the benchmark binary. One process runs one workload and prints
// one JSON object on stdout; perfbench/run.py builds this binary, runs it
// and turns that object into the benchmark's result line.
//
//   edkbench --workload=serve_mixed --seed=1 --seconds=15 --trace=0
//            --work-dir=.bench_build/work
//
// --trace=1 turns on the span tracer: every layer call made from the
// benchmark is recorded, the spans are written to <work-dir>/spans-*.json, and
// each layer's self time is reported. The run fails when the layers' self
// times miss the run's wall time by more than kMaxResidualRatio.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "src/exec/parallel.h"

namespace {

// Share of the traced run's wall time that may fall outside every layer
// span (the benchmark's own glue: sorting samples, comparing replies).
constexpr double kMaxResidualRatio = 0.05;

// Layers whose self time the traced run reports, as <layer>.self_s.
constexpr const char* kLayers[] = {"netio",        "net",      "crawler",
                                   "workload",     "trace",    "trace.stream",
                                   "analysis",     "semantic", "sim"};

[[noreturn]] void Usage(const char* why) {
  std::cerr << "edkbench: " << why
            << "\nusage: edkbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --work-dir=DIR\n"
               "workloads: serve_mixed serve_search paper_pipeline "
               "crawl_scale\n";
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage(("bad argument " + arg).c_str());
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || options.seconds <= 0) {
        Usage("--seconds must be a positive number");
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (key == "work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag --" + key).c_str());
    }
  }
  if (!have_seed) Usage("--seed=N is required");
  if (options.work_dir.empty()) Usage("--work-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) Usage(("cannot create " + options.work_dir).c_str());

  perfbench::Tracer tracer(options.trace);
  perfbench::Result result;
  const auto start = perfbench::Clock::now();
  {
    auto root = tracer.Trace("bench", "workload.run");
    if (options.workload == "serve_mixed") {
      result = perfbench::RunServe(options, /*read_only=*/false, tracer);
    } else if (options.workload == "serve_search") {
      result = perfbench::RunServe(options, /*read_only=*/true, tracer);
    } else if (options.workload == "paper_pipeline") {
      result = perfbench::RunPaperPipeline(options, tracer);
    } else if (options.workload == "crawl_scale") {
      result = perfbench::RunCrawlScale(options, tracer);
    } else {
      Usage(("unknown workload " + options.workload).c_str());
    }
  }
  const double wall_s = perfbench::SecondsSince(start);
  result.metrics["rss_peak_mb"] = perfbench::PeakRssMb();

  if (options.trace) {
    const std::map<std::string, double> self = tracer.SelfSeconds();
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      result.metrics[std::string(layer) + ".self_s"] =
          it == self.end() ? 0.0 : it->second;
    }
    const auto bench_it = self.find("bench");
    const double residual = bench_it == self.end() ? 0.0 : bench_it->second;
    const double ratio = wall_s > 0 ? residual / wall_s : 0.0;
    result.metrics["bench.residual_ratio"] = ratio;
    const std::string spans_path = options.work_dir + "/spans-" +
                                   options.workload + "-" +
                                   std::to_string(options.seed) + ".json";
    if (!tracer.WriteJson(spans_path)) {
      result.Fail("cannot write span dump " + spans_path);
    }
    result.notes.push_back("spans: " + std::to_string(tracer.spans().size()) +
                           " written to " + spans_path);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "layers cover %.4f of %.4f s wall (residual %.2f%%, "
                  "bound %.0f%%)",
                  wall_s - residual, wall_s, 100 * ratio,
                  100 * kMaxResidualRatio);
    result.notes.push_back(line);
    if (ratio > kMaxResidualRatio) {
      result.Fail(std::string("layer self times miss the wall time: ") + line);
    }
  }

  std::cout << "{\"workload\": " << JsonString(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"exec_threads\": " << edk::DefaultThreads()
            << ", \"compiler\": " << JsonString(EDKBENCH_COMPILER)
            << ", \"build_type\": " << JsonString(EDKBENCH_BUILD_TYPE)
            << ", \"wall_s\": " << wall_s
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"digest\": \"";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(result.digest));
  std::cout << digest << "\", \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    std::cout << (i ? ", " : "") << JsonString(result.failures[i]);
  }
  std::cout << "], \"notes\": [";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    std::cout << (i ? ", " : "") << JsonString(result.notes[i]);
  }
  std::cout << "], \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, v] : result.metrics) {
    std::snprintf(value, sizeof(value), "%.17g", v);
    std::cout << (first ? "" : ", ") << JsonString(name) << ": " << value;
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
