// ngsx_serve: the resident region-query daemon (docs/SERVING.md).
//
// Opens a preprocessed BAMX/BAMXM shard set ONCE — source, BAIX, optional
// BAIXv2 — and answers region-convert requests over a Unix-domain socket,
// multiplexed onto one shared exec::Pool. The one-shot ngsx_convert pays
// the source open and the index page reads on every invocation; a browser
// or pileup service issuing many small region queries amortizes them to
// zero here. Records are fetched through the session's one fetch path:
// one positioned read per run of consecutive records.
//
// Usage (each command is one line):
//   ngsx_serve --data shards.bamxm --baix shards.baix --socket /tmp/ngsx.sock
//   ngsx_serve --data input.bamx --baix2 input.baix2 --socket /tmp/ngsx.sock
//              --metrics-interval 5 --metrics-file metrics.json
//   ngsx_serve --data input.bamx --baix input.baix
//              --once "CONVERT chr1:1000-2000 sam"    # in-process, no socket
//
// Protocol (one request line, one response; see docs/SERVING.md):
//   CONVERT <region> <format> [mode=start|overlap] [mapq=N]
//           [strand=fwd|rev] [nodup] [noheader] [deadline-ms=N]
//   STATS | PING | SHUTDOWN | QUIT
//
// Exit status: 0 on success, 1 when serving fails, 2 on a usage error
// (missing or unknown flag, bad flag value).

#include <csignal>
#include <cstdio>

#include <memory>
#include <optional>

#include "core/session.h"
#include "exec/pool.h"
#include "obs/metrics.h"
#include "serve/metrics_flush.h"
#include "serve/server.h"
#include "util/cli.h"

using namespace ngsx;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --data FILE.{bamx,bamxm} [--baix FILE.baix]\n"
               "          [--baix2 FILE.baix2]\n"
               "          (--socket PATH | --once REQUEST...)\n"
               "          [--threads T] [--max-inflight N]\n"
               "          [--metrics-interval SEC] [--metrics-file FILE]\n"
               "--baix serves start-within regions; --baix2 additionally\n"
               "serves overlap regions and mapq/strand/duplicate filters\n"
               "--once handles each REQUEST in-process and prints the\n"
               "responses to stdout (no socket; used by tests and scripts)\n"
               "--metrics-interval flushes a ngsx.metrics.v1 snapshot to\n"
               "--metrics-file (default <socket>.metrics.json) atomically\n"
               "every SEC seconds\n",
               prog);
  return 2;
}

serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) {
    g_server->stop();  // async-signal-safe: atomics + shutdown(2)
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string data = args.get("data", "");
  const std::string socket_path = args.get("socket", "");
  const bool once = args.has("once");
  if (data.empty() || (socket_path.empty() && !once)) {
    return usage(argv[0]);
  }

  try {
    args.reject_unknown({"data", "baix", "baix2", "socket", "once", "threads",
                         "max-inflight", "metrics-interval", "metrics-file"});
    obs::enable_metrics();  // STATS and --metrics-interval need it armed

    core::SessionOptions sopt;
    sopt.bamx_path = data;
    sopt.baix_path = args.get("baix", "");
    sopt.baix2_path = args.get("baix2", "");
    core::ConversionSession session(sopt);

    const int64_t threads_request = args.get_int("threads", 0);
    if (threads_request < 0) {
      throw UsageError("--threads must be >= 0 (0 = auto)");
    }
    const int threads = threads_request == 0 ? exec::hardware_threads()
                                             : static_cast<int>(threads_request);
    exec::Pool pool(threads);

    serve::ServerOptions opt;
    opt.max_queued = static_cast<size_t>(args.get_int("max-inflight", 64));
    serve::Server server(session, pool, opt);

    std::unique_ptr<serve::MetricsFlusher> flusher;
    const int64_t metrics_interval = args.get_int("metrics-interval", 0);
    if (metrics_interval > 0) {
      std::string metrics_file = args.get("metrics-file", "");
      if (metrics_file.empty()) {
        if (socket_path.empty()) {
          throw UsageError("--metrics-interval without --socket needs an "
                           "explicit --metrics-file");
        }
        metrics_file = socket_path + ".metrics.json";
      }
      flusher = std::make_unique<serve::MetricsFlusher>(
          metrics_file, std::chrono::milliseconds(metrics_interval * 1000));
    }

    if (once) {
      // In-process mode: each positional argument (and the --once value)
      // is one request line; responses go to stdout. Exercises the exact
      // socket code path minus the socket.
      std::vector<std::string> requests;
      const std::string first = args.get("once", "");
      if (!first.empty()) {
        requests.push_back(first);
      }
      for (const std::string& p : args.positional()) {
        requests.push_back(p);
      }
      if (requests.empty()) {
        throw UsageError("--once needs at least one request");
      }
      for (const std::string& request : requests) {
        const std::string response = server.handle_line(request);
        std::fwrite(response.data(), 1, response.size(), stdout);
      }
      server.scheduler().shutdown();
      return 0;
    }

    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::fprintf(stderr, "ngsx_serve: %llu records resident, listening on %s\n",
                 static_cast<unsigned long long>(session.num_records()),
                 socket_path.c_str());
    server.serve_unix(socket_path);
    std::fprintf(stderr, "ngsx_serve: drained, bye\n");
    g_server = nullptr;
    return 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
