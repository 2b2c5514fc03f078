// daemon_mix: crsatd in-process on loopback, 2 reasoning-pool workers,
// 4 closed-loop connections (the protocol is strict request-reply, so
// every caller waits for its reply before sending the next request).
//
// Every connection cycles every schema, starting at a different offset
// of a seeded schema order. Per schema it sends
//
//   parse, check, lint, implications <isa query>, check, lint json, witness
//
// The repeated check and the witness on an unchanged session are what a
// per-session memo would hit; the parse is the session write it must
// invalidate.
//
// Correctness: every reply's status and bytes must equal the one-shot
// CLI's exit status and stdout for the same command, as recorded in
// perfbench/reference/daemon_mix.txt (length plus FNV-1a hash per reply;
// `--regen-reference --cli PATH` re-records it by running the CLI).
// Shed, resource-limited or malformed requests count as failed ops.
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "src/crsat.h"
#include "src/server/client.h"
#include "src/server/handlers.h"
#include "src/server/server.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

using crsat::server::Client;
using crsat::server::RequestType;
using crsat::server::ResponseStatus;

constexpr int kConnections = 4;
constexpr int kPoolWorkers = 2;
// The untraced window is reported as the median of this many stretches.
constexpr int kSlices = 4;

struct SchemaSpec {
  const char* file;
  const char* query;  ///< An `implications` query over its own classes.
};

constexpr SchemaSpec kSchemas[] = {
    {"university", "isa PhDStudent Person"},
    {"meeting", "isa Discussant Speaker"},
    {"figure1", "isa D C"},
    {"finitely_unsat_chain", "isa C A"},
};
constexpr int kNumSchemas = 4;

struct Step {
  RequestType type;
  int type_index;  ///< Into kRequestTypes.
  const char* payload;  ///< Fixed payload; parse/implications fill theirs.
};

constexpr Step kSteps[] = {
    {RequestType::kParse, 0, ""},        {RequestType::kCheck, 1, ""},
    {RequestType::kLint, 2, ""},         {RequestType::kImplications, 3, ""},
    {RequestType::kCheck, 1, ""},        {RequestType::kLint, 2, "json"},
    {RequestType::kWitness, 4, "text"},
};
constexpr int kNumSteps = 7;

constexpr const char* kCallSpans[kNumRequestTypes] = {
    "Client::Call:parse", "Client::Call:check", "Client::Call:lint",
    "Client::Call:implications", "Client::Call:witness"};
constexpr const char* kHandlerSpans[kNumRequestTypes] = {
    "HandleRequest:parse", "HandleRequest:check", "HandleRequest:lint",
    "HandleRequest:implications", "HandleRequest:witness"};

struct Expected {
  int status = -1;
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
};

struct SchemaInput {
  std::string name;
  std::string display;  ///< The path the CLI is given, relative to the checkout.
  std::string text;
  std::string query;
  Expected expected[kNumSteps];

  std::string Payload(int step) const {
    if (kSteps[step].type == RequestType::kParse) {
      return display + "\n" + text;
    }
    if (kSteps[step].type == RequestType::kImplications) {
      return query;
    }
    return kSteps[step].payload;
  }
};

bool Matches(const Expected& expected, ResponseStatus status,
             const std::string& payload) {
  return expected.status == static_cast<int>(status) &&
         expected.bytes == payload.size() && expected.hash == Fnv1a(payload);
}

std::string ReferencePath(const Options& options) {
  return options.bench_dir + "/reference/daemon_mix.txt";
}

bool LoadReference(const Options& options, std::vector<SchemaInput>* inputs) {
  std::string text;
  if (!ReadFile(ReferencePath(options), &text)) {
    std::cerr << "[crbench] cannot read " << ReferencePath(options) << "\n";
    return false;
  }
  std::istringstream in(text);
  std::string line;
  int loaded = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name, hash;
    int step = -1;
    Expected expected;
    fields >> name >> step >> expected.status >> expected.bytes >> hash;
    expected.hash = std::strtoull(hash.c_str(), nullptr, 16);
    for (SchemaInput& input : *inputs) {
      if (input.name == name && step >= 0 && step < kNumSteps) {
        input.expected[step] = expected;
        ++loaded;
      }
    }
  }
  return loaded == kNumSchemas * kNumSteps;
}

// Re-records the reference from the one-shot CLI, run from the checkout
// root with the same schema paths the daemon sessions are given.
bool RegenerateReference(const Options& options, const std::string& cli,
                         std::vector<SchemaInput>* inputs) {
  std::ostringstream out;
  out << "# daemon_mix reference: per schema and step, the CLI's exit\n"
         "# status (0 ok, 1 findings), stdout length and FNV-1a 64 hash.\n"
         "# Steps: parse check lint implications check lint-json "
         "witness.\n";
  for (SchemaInput& input : *inputs) {
    for (int step = 0; step < kNumSteps; ++step) {
      std::string stdout_text;
      int status = 0;
      if (kSteps[step].type == RequestType::kParse) {
        // The CLI has no parse command; the daemon acknowledges with the
        // schema's declared name.
        const std::size_t start = input.text.find("schema ") + 7;
        stdout_text = "parsed schema '" +
                      input.text.substr(start, input.text.find(' ', start) -
                                                   start) +
                      "'\n";
      } else {
        std::string command = cli + " ";
        switch (kSteps[step].type) {
          case RequestType::kCheck:
            command += "check " + input.display;
            break;
          case RequestType::kLint:
            command += "lint " + input.display +
                       (std::string(kSteps[step].payload) == "json"
                            ? " --json"
                            : "");
            break;
          case RequestType::kImplications:
            command += "implies " + input.display + " " + input.query;
            break;
          case RequestType::kWitness:
            command += "check " + input.display + " --witness=" +
                       kSteps[step].payload;
            break;
          default:
            return false;
        }
        FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
        if (pipe == nullptr) {
          return false;
        }
        char buffer[65536];
        std::size_t n;
        while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
          stdout_text.append(buffer, n);
        }
        const int wait_status = pclose(pipe);
        status = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
        if (status != 0 && status != 1) {
          std::cerr << "[crbench] CLI failed: " << command << "\n";
          return false;
        }
      }
      Expected& expected = input.expected[step];
      expected.status = status;  // Exit 0/1 map to kOk/kFindings.
      expected.bytes = stdout_text.size();
      expected.hash = Fnv1a(stdout_text);
      char hash[17];
      std::snprintf(hash, sizeof(hash), "%016llx",
                    static_cast<unsigned long long>(expected.hash));
      out << input.name << " " << step << " " << expected.status << " "
          << expected.bytes << " " << hash << "\n";
    }
  }
  return WriteFile(ReferencePath(options), out.str());
}

// One request as the client saw it.
struct Sample {
  int type_index;
  double latency_ms;
  std::uint64_t bytes;
  double start_s;  ///< Since the window opened.
};

struct ConnectionLog {
  std::vector<Sample> samples;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
  std::vector<std::string> errors;
  /// Reply hash per (schema, step), for the traced/untraced comparison.
  std::map<int, std::uint64_t> hashes;
};

// One closed-loop connection: cycles `order` starting at `offset` until
// `deadline`, comparing each reply with the reference.
void Drive(Client* client, const std::vector<SchemaInput>& inputs,
           const std::vector<int>& order, int offset, Clock::time_point opened,
           Clock::time_point deadline, ConnectionLog* log) {
  std::int64_t op = static_cast<std::int64_t>(offset) << 32;
  for (int k = offset;; ++k) {
    const int schema = order[k % kNumSchemas];
    const SchemaInput& input = inputs[schema];
    for (int step = 0; step < kNumSteps; ++step) {
      if (Clock::now() >= deadline) {
        return;
      }
      const int type = kSteps[step].type_index;
      Tracer::SetOp(op++);
      const Clock::time_point start = Clock::now();
      crsat::Result<crsat::server::Reply> reply = [&] {
        ScopedSpan span(kCallSpans[type], /*with_counters=*/false);
        return client->Call(kSteps[step].type, input.Payload(step));
      }();
      const double latency = MillisSince(start);
      if (!reply.ok()) {
        ++log->failed;  // The connection is gone; it stops here.
        log->errors.push_back("transport: " + reply.status().ToString());
        return;
      }
      log->samples.push_back({type, latency, reply->payload.size(),
                              MillisBetween(opened, start) / 1000});
      if (reply->status != ResponseStatus::kOk &&
          reply->status != ResponseStatus::kFindings) {
        ++log->failed;  // Bad request, resource trip, shed or draining.
        continue;
      }
      if (!Matches(input.expected[step], reply->status, reply->payload)) {
        log->mismatches.push_back(input.name + " step " +
                                  std::to_string(step) +
                                  ": reply differs from the CLI's output");
      }
      log->hashes[schema * kNumSteps + step] = Fnv1a(reply->payload);
    }
  }
}

struct Daemon {
  std::unique_ptr<crsat::server::Server> server;
  std::vector<Client> clients;

  void Stop() {
    clients.clear();
    if (server != nullptr) {
      server->BeginDrain();
      server->Wait();
      server.reset();
    }
  }
};

// Start, connect, parse, warm up.
bool SetUp(const std::vector<SchemaInput>& inputs, Daemon* daemon) {
  crsat::server::ServerOptions server_options;
  server_options.port = 0;
  server_options.threads = kPoolWorkers;
  daemon->server = std::make_unique<crsat::server::Server>(server_options);
  const crsat::Status started = daemon->server->Start();
  if (!started.ok()) {
    std::cerr << "[crbench] daemon start: " << started << "\n";
    return false;
  }
  for (int c = 0; c < kConnections; ++c) {
    Client client;
    if (!client.ConnectTcp(daemon->server->port()).ok()) {
      return false;
    }
    daemon->clients.push_back(std::move(client));
  }
  // Warm-up op: one full cycle of the heaviest schema on connection 0.
  const SchemaInput& warm = inputs[0];
  for (int step = 0; step < kNumSteps; ++step) {
    crsat::Result<crsat::server::Reply> reply =
        daemon->clients[0].Call(kSteps[step].type, warm.Payload(step));
    if (!reply.ok() || !Matches(warm.expected[step], reply->status,
                                reply->payload)) {
      std::cerr << "[crbench] warm-up " << warm.name << " step " << step
                << " failed\n";
      return false;
    }
  }
  return true;
}

struct Window {
  std::vector<ConnectionLog> logs;
  double seconds = 0;  ///< As requested; requests in flight run over.
  double elapsed_s = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;

  // Equal stretches of the window; light = parse, lint, implications.
  std::vector<Slice> Slices(int count) const {
    std::vector<Slice> slices(count);
    for (Slice& slice : slices) {
      slice.seconds = seconds / count;
    }
    for (const ConnectionLog& log : logs) {
      for (const Sample& sample : log.samples) {
        Slice& slice = slices[std::min<int>(
            count - 1, static_cast<int>(sample.start_s / seconds * count))];
        slice.latencies_ms.push_back(sample.latency_ms);
        if (sample.type_index == 0 || sample.type_index == 2 ||
            sample.type_index == 3) {
          slice.light_ms.push_back(sample.latency_ms);
        }
      }
    }
    return slices;
  }

  std::vector<double> Latencies(int type) const {  // -1: every type.
    std::vector<double> values;
    for (const ConnectionLog& log : logs) {
      for (const Sample& sample : log.samples) {
        if (type < 0 || sample.type_index == type) {
          values.push_back(sample.latency_ms);
        }
      }
    }
    return values;
  }
};

Window Measure(Daemon* daemon, const std::vector<SchemaInput>& inputs,
               const std::vector<int>& order, double seconds,
               RunResult* result) {
  Window window;
  window.seconds = seconds;
  window.logs.resize(kConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Drive(&daemon->clients[c], inputs, order, c, start, deadline,
            &window.logs[c]);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  window.elapsed_s = MillisSince(start) / 1000;
  for (const ConnectionLog& log : window.logs) {
    window.requests += log.samples.size();
    window.failed += log.failed;
    for (const std::string& mismatch : log.mismatches) {
      result->Mismatch(mismatch);
    }
    for (const std::string& error : log.errors) {
      std::cerr << "[crbench] " << error << "\n";
    }
  }
  return window;
}

// Replays every request of every schema through HandleRequest on a
// private session (no sockets, no queueing), plus the light layers'
// public entry points on the same texts.
void ReplayHandlers(const std::vector<SchemaInput>& inputs, int rounds,
                   RunResult* result) {
  crsat::server::Session session(/*session_id=*/0);
  const crsat::ResourceLimits caps;
  for (int round = 0; round < rounds; ++round) {
    for (const SchemaInput& input : inputs) {
      for (int step = 0; step < kNumSteps; ++step) {
        const int type = kSteps[step].type_index;
        const crsat::server::Frame frame =
            crsat::server::MakeRequest(kSteps[step].type, input.Payload(step));
        crsat::server::HandlerResult handled;
        {
          ScopedSpan span(kHandlerSpans[type]);
          handled = crsat::server::HandleRequest(session, frame, caps);
        }
        if (!Matches(input.expected[step], handled.status, handled.payload)) {
          result->Mismatch(input.name + " step " + std::to_string(step) +
                           ": HandleRequest replay differs from the CLI");
        }
        if (kSteps[step].type == RequestType::kParse) {
          ScopedSpan span(span::kParse);
          (void)crsat::ParseSchema(input.text).ok();
        } else if (kSteps[step].type == RequestType::kLint) {
          crsat::ParseSchemaOptions lenient;
          lenient.permit_empty_ranges = true;
          crsat::Result<crsat::NamedSchema> parsed =
              crsat::ParseSchema(input.text, lenient);
          if (parsed.ok()) {
            ScopedSpan span(span::kLint);
            (void)crsat::RunLint(*parsed).size();
          }
        } else if (kSteps[step].type == RequestType::kCheck) {
          ScopedSpan span(span::kProvablyEmpty);
          (void)crsat::ComputeProvablyEmpty(session.schema->schema).AnyEmpty();
        }
      }
    }
  }
}

}  // namespace

int RunDaemonMix(const Options& options, RunResult* result) {
  std::vector<SchemaInput> inputs;
  for (const SchemaSpec& spec : kSchemas) {
    SchemaInput input;
    input.name = spec.file;
    input.display = options.bench_dir + "/schemas/" + spec.file + ".cr";
    input.query = spec.query;
    if (!ReadFile(input.display, &input.text)) {
      std::cerr << "[crbench] cannot read " << input.display << "\n";
      return 2;
    }
    inputs.push_back(std::move(input));
  }
  if (options.regen_reference) {
    if (options.cli.empty() ||
        !RegenerateReference(options, options.cli, &inputs)) {
      std::cerr << "[crbench] could not regenerate the reference\n";
      return 2;
    }
    std::cerr << "[crbench] wrote " << ReferencePath(options) << "\n";
  } else if (!LoadReference(options, &inputs)) {
    std::cerr << "[crbench] reference does not cover every request\n";
    return 2;
  }

  // The seed orders the schema cycle; connection c starts at offset c.
  std::mt19937_64 rng(options.seed * 0xA24BAED4963EE407ULL + 5);
  const std::vector<int> order = SeededPermutation(rng, kNumSchemas);

  Daemon daemon;
  std::vector<double> setups;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (round > 0) {
      daemon.Stop();
    }
    const Clock::time_point start = Clock::now();
    if (!SetUp(inputs, &daemon)) {
      daemon.Stop();
      return 2;
    }
    setups.push_back(MillisSince(start) / 1000);
  }

  const Window untraced =
      Measure(&daemon, inputs, order,
              options.trace ? options.seconds / 2 : options.seconds, result);
  std::uint64_t attempted = untraced.requests;
  std::uint64_t failed = untraced.failed;

  if (options.trace) {
    const crsat::server::RequestScheduler::Stats before =
        daemon.server->scheduler_stats();
    const Counters counters_before = Counters::Take();
    Tracer::Get().Enable(true);
    const Window traced =
        Measure(&daemon, inputs, order, options.seconds / 2, result);
    const Counters counters = Counters::Take() - counters_before;
    const crsat::server::RequestScheduler::Stats after =
        daemon.server->scheduler_stats();
    attempted += traced.requests;
    failed += traced.failed;
    for (int c = 0; c < kConnections; ++c) {
      for (const auto& [key, hash] : traced.logs[c].hashes) {
        for (const ConnectionLog& log : untraced.logs) {
          const auto before_hash = log.hashes.find(key);
          if (before_hash != log.hashes.end() && before_hash->second != hash) {
            result->Mismatch("traced reply differs from untraced");
          }
        }
      }
    }
    ReplayHandlers(inputs, /*rounds=*/5, result);
    Tracer::Get().Enable(false);

    LayerReport layers;
    layers.ops = static_cast<double>(traced.requests);
    layers.per_call = true;
    layers.layers = Tracer::Get().Aggregate();
    // Process-wide totals over the traced window: concurrent requests
    // share the counters, so there is no per-request attribution.
    layers.counters = counters;
    double bytes = 0;
    for (const ConnectionLog& log : traced.logs) {
      for (const Sample& sample : log.samples) {
        bytes += static_cast<double>(sample.bytes);
      }
    }
    layers.response_bytes = traced.requests > 0 ? bytes / traced.requests : 0;
    layers.admitted = static_cast<double>(after.admitted - before.admitted);
    layers.shed = static_cast<double>(after.shed - before.shed);
    for (int t = 0; t < kNumRequestTypes; ++t) {
      const std::vector<double> latencies = traced.Latencies(t);
      layers.request_p50_ms[t] = Percentile(latencies, 0.50);
      layers.request_p99_ms[t] = Percentile(latencies, 0.99);
      double sum = 0;
      for (double latency : latencies) {
        sum += latency;
      }
      layers.request_mean_ms[t] = latencies.empty() ? 0 : sum / latencies.size();
      const auto handler = layers.layers.find(kHandlerSpans[t]);
      if (handler != layers.layers.end()) {
        layers.handler_ms[t] = handler->second.self_ms / handler->second.count;
      }
    }
    layers.trace_overhead_ops_per_s = untraced.requests / untraced.elapsed_s -
                                      traced.requests / traced.elapsed_s;
    AddLayerMetrics(layers, result);
    WriteTraceFiles(options, "");
  }
  daemon.Stop();

  if (!options.trace) {
    AddEndToEnd(result, setups, untraced.Slices(kSlices), 0.99, 0.99,
                "p99");
    for (int t = 0; t < kNumRequestTypes; ++t) {
      const std::vector<double> values = untraced.Latencies(t);
      char line[160];
      std::snprintf(line, sizeof(line), "%-12s n=%-6zu p50=%.3f ms p99=%.3f ms",
                    kRequestTypes[t], values.size(), Percentile(values, 0.5),
                    Percentile(values, 0.99));
      result->notes.push_back(line);
    }
  }
  result->attempted = attempted;
  result->failed = failed;
  return 0;
}

}  // namespace perfbench
