// Transport benchmark: the same minimpi operations measured over every
// backend (threads ranks and tcp loopback processes), plus the
// paper-cluster simulator's communication parameters for the "simulated
// vs real ranks" comparison in EXPERIMENTS.md.
//
// Emits BENCH_transport.json (path configurable with --json):
//
//   "backends": per-transport measurements —
//       setup_s        one empty mpi::run() at `ranks` ranks: world
//                      bootstrap + teardown (fork and tcp mesh dial-in
//                      are both in here)
//       pingpong_us    half round-trip of an 8-byte message, rank 0 <-> 1
//       bandwidth_mbps 0 -> 1 stream of `--mb` MiB messages, acked
//       barrier_us     one N-rank barrier
//       allreduce_us   one N-rank allreduce_sum<int64_t>
//       halo_us        one NL-means-style halo step: every rank exchanges
//                      8 KiB with both neighbours, then a barrier
//   "simulated": the discrete-event cluster model's communication
//       constants (bench_util.h paper_cluster()), for calibrating the
//       simulator's collective costs against the real transports.
//
// The threads backend measures pure mailbox/condition-variable cost; tcp
// adds address-space crossings and the loopback stack. Run under perf or with --reps scaled up for profiling.
//
// Usage: bench_transport [--ranks N] [--reps R] [--mb M] [--json PATH]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mpi/minimpi.h"
#include "obs/metrics.h"
#include "util/cli.h"
#include "util/timer.h"

using namespace ngsx;

namespace {

struct BackendResult {
  std::string backend;
  double setup_s = 0.0;
  double pingpong_us = 0.0;
  double bandwidth_mbps = 0.0;
  double barrier_us = 0.0;
  double allreduce_us = 0.0;
  double halo_us = 0.0;
};

/// Stores `value` on rank 0 / every non-shared rank — the standard
/// multi-backend publish pattern (minimpi.h): under fork mode the parent
/// process is rank 0, so the captured result lands in the caller.
void publish(mpi::Comm& comm, double& slot, double value) {
  if (comm.rank() == 0 || !mpi::ranks_share_address_space()) {
    slot = value;
  }
}

BackendResult measure_backend(const std::string& name, int ranks, int reps,
                              size_t stream_bytes) {
  ::setenv("NGSX_MPI_TRANSPORT", name.c_str(), 1);
  BackendResult r;
  r.backend = name;

  {
    WallTimer timer;
    mpi::run(ranks, [](mpi::Comm&) {});
    r.setup_s = timer.seconds();
  }

  // Ping-pong: 8-byte message bounced rank 0 <-> 1, reps round trips.
  mpi::run(2, [&](mpi::Comm& comm) {
    uint64_t token = 1;
    comm.barrier();
    WallTimer timer;
    for (int i = 0; i < reps; ++i) {
      if (comm.rank() == 0) {
        comm.send_value(1, 1, token);
        token = comm.recv_value<uint64_t>(1, 2);
      } else {
        token = comm.recv_value<uint64_t>(0, 1);
        comm.send_value(0, 2, token);
      }
    }
    publish(comm, r.pingpong_us, timer.seconds() / reps / 2.0 * 1e6);
  });

  // Bandwidth: rank 0 streams 1 MiB messages to rank 1, one trailing ack.
  mpi::run(2, [&](mpi::Comm& comm) {
    const size_t msg = 1 << 20;
    const size_t n_msgs = std::max<size_t>(stream_bytes / msg, 1);
    std::string payload(msg, 'x');
    comm.barrier();
    WallTimer timer;
    if (comm.rank() == 0) {
      for (size_t i = 0; i < n_msgs; ++i) {
        comm.send(1, 1, payload);
      }
      comm.recv(1, 2);  // ack: every byte has been consumed
    } else {
      for (size_t i = 0; i < n_msgs; ++i) {
        comm.recv(0, 1);
      }
      comm.send(0, 2, "ok");
    }
    publish(comm, r.bandwidth_mbps,
            static_cast<double>(n_msgs * msg) / timer.seconds() / 1e6);
  });

  // Collectives at the full rank count.
  mpi::run(ranks, [&](mpi::Comm& comm) {
    comm.barrier();
    WallTimer timer;
    for (int i = 0; i < reps; ++i) {
      comm.barrier();
    }
    publish(comm, r.barrier_us, timer.seconds() / reps * 1e6);

    comm.barrier();
    WallTimer timer2;
    int64_t acc = 0;
    for (int i = 0; i < reps; ++i) {
      acc += comm.allreduce_sum<int64_t>(comm.rank() + i);
    }
    publish(comm, r.allreduce_us, timer2.seconds() / reps * 1e6);
    if (acc < 0) {
      std::abort();  // keep the reduction observable
    }
  });

  // Halo step: the NL-means §IV exchange shape — every rank swaps 8 KiB
  // with each neighbour, then synchronizes.
  mpi::run(ranks, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    const int size = comm.size();
    std::vector<double> edge(1024, 1.5);
    comm.barrier();
    WallTimer timer;
    for (int i = 0; i < reps; ++i) {
      if (rank > 0) {
        comm.send_vector<double>(rank - 1, 1, edge);
      }
      if (rank < size - 1) {
        comm.send_vector<double>(rank + 1, 2, edge);
      }
      if (rank > 0) {
        comm.recv_vector<double>(rank - 1, 2);
      }
      if (rank < size - 1) {
        comm.recv_vector<double>(rank + 1, 1);
      }
      comm.barrier();
    }
    publish(comm, r.halo_us, timer.seconds() / reps * 1e6);
  });

  ::unsetenv("NGSX_MPI_TRANSPORT");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const int reps = static_cast<int>(args.get_int("reps", 500));
  const size_t stream_mb =
      static_cast<size_t>(args.get_int("mb", 64));
  const std::string json_path = args.get("json", "BENCH_transport.json");

  obs::enable_metrics();

  std::printf("=== minimpi transport comparison (%d ranks, %d reps) ===\n",
              ranks, reps);
  std::vector<BackendResult> results;
  for (const char* backend : {"threads", "tcp"}) {
    results.push_back(
        measure_backend(backend, ranks, reps, stream_mb << 20));
    const BackendResult& r = results.back();
    std::printf(
        "%-8s setup %6.1f ms | pingpong %7.2f us | %8.0f MB/s | "
        "barrier %7.2f us | allreduce %7.2f us | halo %7.2f us\n",
        r.backend.c_str(), r.setup_s * 1e3, r.pingpong_us, r.bandwidth_mbps,
        r.barrier_us, r.allreduce_us, r.halo_us);
  }

  const cluster::ClusterConfig paper = bench::paper_cluster();

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"ranks\": %d,\n", ranks);
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"backends\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BackendResult& r = results[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"setup_s\": %.6f, "
                 "\"pingpong_us\": %.3f, \"bandwidth_mbps\": %.1f, "
                 "\"barrier_us\": %.3f, \"allreduce_us\": %.3f, "
                 "\"halo_us\": %.3f}%s\n",
                 r.backend.c_str(), r.setup_s, r.pingpong_us,
                 r.bandwidth_mbps, r.barrier_us, r.allreduce_us, r.halo_us,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"simulated\": {\"collective_hop_us\": %.1f, "
               "\"rank_startup_s\": %.3f, \"nodes\": %d, "
               "\"cores_per_node\": %d},\n",
               paper.collective_hop * 1e6, paper.rank_startup, paper.nodes,
               paper.cores_per_node);
  std::fprintf(f, "  \"obs\": %s\n}\n", obs::metrics_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
