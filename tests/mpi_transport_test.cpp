// Transport parity: the minimpi semantics contract (docs/DISTRIBUTED.md)
// run against every backend, up to call_peaks in a launched world. Each
// test sets NGSX_MPI_TRANSPORT and calls the ordinary mpi::run() entry
// point; for tcp that forks real child processes, so rank bodies assert
// with NGSX_CHECK (which propagates through the abort/rethrow path) rather
// than gtest macros (which would be invisible in a child).

#include "mpi/minimpi.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "mpi/launch.h"
#include "simdata/histsim.h"
#include "stats/peaks.h"
#include "util/common.h"

namespace mpi = ngsx::mpi;

namespace {

class TransportTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { ::setenv("NGSX_MPI_TRANSPORT", GetParam(), 1); }
  void TearDown() override { ::unsetenv("NGSX_MPI_TRANSPORT"); }

  bool multiprocess() const {
    return std::string(GetParam()) != "threads";
  }
};

TEST_P(TransportTest, TransportNameMatches) {
  EXPECT_STREQ(mpi::transport_name(), GetParam());
}

TEST_P(TransportTest, P2pFifoPerSourceAndTag) {
  mpi::run(3, [](mpi::Comm& c) {
    constexpr int kCount = 200;
    if (c.rank() == 0) {
      // Interleave two tags and two destinations; FIFO must hold per
      // (source, tag) independently.
      for (int i = 0; i < kCount; ++i) {
        c.send_value(1, 5, i);
        c.send_value(1, 6, 1000 + i);
        c.send_value(2, 5, 2000 + i);
      }
    } else if (c.rank() == 1) {
      for (int i = 0; i < kCount; ++i) {
        NGSX_CHECK(c.recv_value<int>(0, 5) == i);
      }
      for (int i = 0; i < kCount; ++i) {
        NGSX_CHECK(c.recv_value<int>(0, 6) == 1000 + i);
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        NGSX_CHECK(c.recv_value<int>(0, 5) == 2000 + i);
      }
    }
  });
}

TEST_P(TransportTest, LargeMessagesStreamThroughBoundedBuffers) {
  // 3 MiB payloads: far beyond a loopback socket's send buffer, so eager
  // sends must stream while the peer's reader thread drains.
  mpi::run(2, [](mpi::Comm& c) {
    std::vector<uint32_t> big(3 * 1024 * 1024 / 4);
    std::iota(big.begin(), big.end(), 17u);
    if (c.rank() == 0) {
      c.send_vector<uint32_t>(1, 3, big);
      auto echo = c.recv_vector<uint32_t>(1, 4);
      NGSX_CHECK(echo == big);
    } else {
      auto got = c.recv_vector<uint32_t>(0, 3);
      NGSX_CHECK(got == big);
      c.send_vector<uint32_t>(1 - c.rank(), 4, got);
    }
  });
}

TEST_P(TransportTest, EmptyMessages) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 9, "");
      NGSX_CHECK(c.recv(1, 10).empty());
    } else {
      NGSX_CHECK(c.recv(0, 9).empty());
      c.send(0, 10, "");
    }
  });
}

TEST_P(TransportTest, ProbeSeesDeliveredMessage) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 11, 42);
    }
    // Rank 0's barrier-release to rank 1 travels the same FIFO stream as
    // the data message, so after the barrier the message is queued.
    c.barrier();
    if (c.rank() == 1) {
      NGSX_CHECK(c.probe(0, 11));
      NGSX_CHECK(!c.probe(0, 12));
      NGSX_CHECK(c.recv_value<int>(0, 11) == 42);
      NGSX_CHECK(!c.probe(0, 11));
    }
  });
}

TEST_P(TransportTest, BarrierAndCollectives) {
  mpi::run(4, [](mpi::Comm& c) {
    const int r = c.rank();
    // bcast
    std::string root_word = c.bcast(2, r == 2 ? "payload" : "");
    NGSX_CHECK(root_word == "payload");
    // gather at a non-zero root
    auto parts = c.gather(1, std::string(1, static_cast<char>('a' + r)));
    if (r == 1) {
      NGSX_CHECK(parts.size() == 4);
      NGSX_CHECK(parts[0] == "a" && parts[3] == "d");
    } else {
      NGSX_CHECK(parts.empty());
    }
    // allgather
    auto all = c.allgather(std::string(1, static_cast<char>('w' + r)));
    NGSX_CHECK(all.size() == 4 && all[0] == "w" && all[3] == "z");
    // reductions
    NGSX_CHECK(c.allreduce_sum<int64_t>(r + 1) == 10);
    auto vals = c.allgather_values<int>(r * 10);
    NGSX_CHECK(static_cast<int>(vals.size()) == c.size());
    for (int i = 0; i < c.size(); ++i) {
      NGSX_CHECK(vals[static_cast<size_t>(i)] == i * 10);
    }
    c.barrier();
  });
}

TEST_P(TransportTest, RepeatedBarriers) {
  mpi::run(4, [](mpi::Comm& c) {
    for (int i = 0; i < 50; ++i) {
      c.barrier();
    }
  });
}

TEST_P(TransportTest, SequentialRunsDoNotLeakMessages) {
  // A message sent but never received in run 1 must not be matched by
  // run 2's recv of the same (source, tag).
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 21, 111);  // consumed
      c.send_value(1, 21, 999);  // deliberately orphaned
    } else {
      NGSX_CHECK(c.recv_value<int>(0, 21) == 111);
    }
    c.barrier();
  });
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 21, 222);
    } else {
      NGSX_CHECK(c.recv_value<int>(0, 21) == 222);
    }
  });
}

TEST_P(TransportTest, SingleRankWorld) {
  mpi::run(1, [](mpi::Comm& c) {
    NGSX_CHECK(c.size() == 1);
    c.barrier();
    NGSX_CHECK(c.allreduce_sum<int>(5) == 5);
    c.send_value(0, 1, 7);  // self-send
    NGSX_CHECK(c.recv_value<int>(0, 1) == 7);
  });
}

TEST_P(TransportTest, AddressSpaceFlagMatchesBackend) {
  const bool expect_shared = !multiprocess();
  mpi::run(2, [expect_shared](mpi::Comm& c) {
    NGSX_CHECK(mpi::ranks_share_address_space() == expect_shared);
    c.barrier();
  });
  // Outside a world the flag reverts to "shared" (plain threaded code).
  EXPECT_TRUE(mpi::ranks_share_address_space());
}

TEST_P(TransportTest, AbortOnThrowWakesBlockedRanks) {
  // Rank 1 fails; every other rank is parked in a recv that can never be
  // matched. The abort must wake them and run() must rethrow rank 1's
  // error with its original type and message on every backend.
  try {
    mpi::run(4, [](mpi::Comm& c) {
      if (c.rank() == 1) {
        throw ngsx::IoError("boom from rank 1");
      }
      c.recv(3, 99);
    });
    FAIL() << "run() should have thrown";
  } catch (const ngsx::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("boom from rank 1"),
              std::string::npos);
  }
}

TEST_P(TransportTest, RankZeroFailureKeepsExactType) {
  // Rank 0 is the calling process in fork mode; its exception object must
  // be rethrown verbatim, not reconstructed.
  try {
    mpi::run(3, [](mpi::Comm& c) {
      if (c.rank() == 0) {
        throw ngsx::FormatError("bad header");
      }
      c.recv(0, 50);
    });
    FAIL() << "run() should have thrown";
  } catch (const ngsx::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("bad header"), std::string::npos);
  }
}

TEST_P(TransportTest, AbortWakesRankBlockedInBarrier) {
  EXPECT_THROW(
      mpi::run(3,
               [](mpi::Comm& c) {
                 if (c.rank() == 2) {
                   throw ngsx::Error("rank 2 gives up");
                 }
                 c.barrier();
               }),
      ngsx::Error);
}

TEST_P(TransportTest, InvalidPeerRankChecked) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& c) {
                          if (c.rank() == 0) {
                            c.send_value(5, 1, 1);
                          }
                        }),
               ngsx::Error);
}

TEST_P(TransportTest, CrashedRankAbortsInsteadOfHanging) {
  if (!multiprocess()) {
    GTEST_SKIP() << "a crashing rank only exists with the tcp backend";
  }
  // Rank 2 dies without unwinding (no abort, no FIN, no error pipe). The
  // survivors are blocked in unmatchable recvs; crash detection (the fork
  // runner's waitpid supervisor, or tcp's EOF-without-FIN) must abort the
  // world so run() throws instead of hanging — and the launched equivalent
  // exits nonzero.
  try {
    mpi::run(4, [](mpi::Comm& c) {
      if (c.rank() == 2) {
        ::_exit(7);
      }
      c.recv(3, 123);
    });
    FAIL() << "run() should have thrown";
  } catch (const mpi::AbortError&) {
    FAIL() << "crash must surface a descriptive error, not bare AbortError";
  } catch (const ngsx::Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos)
        << e.what();
  }
}

TEST_P(TransportTest, AssembledSlicesReachEveryRank) {
  // One result array, as a caller holds it: shared by thread ranks, a
  // private copy in each process rank.
  constexpr size_t kLen = 1000;
  std::vector<int32_t> whole(kLen, -1);
  mpi::run(4, [&](mpi::Comm& c) {
    const size_t lo = kLen * static_cast<size_t>(c.rank()) / 4;
    const size_t hi = kLen * static_cast<size_t>(c.rank() + 1) / 4;
    c.assemble_slices<int32_t>(whole, lo, hi, [&](int32_t* slice) {
      for (size_t i = lo; i < hi; ++i) {
        slice[i - lo] = static_cast<int32_t>(i * 3);
      }
    });
    for (size_t i = 0; i < kLen; ++i) {
      NGSX_CHECK(whole[i] == static_cast<int32_t>(i * 3));
    }
  });
}

/// call_peaks input with planted peaks: a non-empty result to compare.
struct PeakInput {
  std::vector<double> hist;
  ngsx::stats::SimulationSet sims;

  PeakInput() {
    ngsx::simdata::HistSimConfig cfg;
    cfg.seed = 5;
    cfg.peak_density = 0.0;
    hist = ngsx::simdata::simulate_histogram(3000, cfg);
    for (size_t c : {600, 1800}) {
      for (size_t i = c - 20; i < c + 20; ++i) {
        hist[i] += 60.0;
      }
    }
    sims = ngsx::simdata::simulate_null_batch(3000, 10, cfg.background_rate,
                                              6);
  }
};

bool same_peaks(const ngsx::stats::PeakCallResult& a,
                const ngsx::stats::PeakCallResult& b) {
  return a.p_t == b.p_t && a.fdr == b.fdr && a.regions == b.regions &&
         a.denoised.size() == b.denoised.size() &&
         std::memcmp(a.denoised.data(), b.denoised.data(),
                     a.denoised.size() * sizeof(double)) == 0;
}

TEST_P(TransportTest, CallPeaksGivesEveryRankTheFullResult) {
  // Every parallel stage of call_peaks (NL-means, the p_i counts, the FDR
  // sweep) must hand each rank the whole result, or a launched world's
  // ranks would diverge after the first stage.
  const PeakInput in;
  ngsx::stats::PeakCallParams params;
  params.ranks = 1;  // runs no world: the same on every backend
  const ngsx::stats::PeakCallResult want =
      ngsx::stats::call_peaks(in.hist, in.sims, params);
  ASSERT_GE(want.p_t, 0);
  ASSERT_FALSE(want.regions.empty());

  constexpr int kRanks = 3;
  params.ranks = kRanks;
  EXPECT_TRUE(same_peaks(ngsx::stats::call_peaks(in.hist, in.sims, params),
                         want));
  if (!multiprocess()) {
    return;
  }
  // A launched world, as ngsx_mpirun starts it: every process is one rank
  // and returns from call_peaks itself.
  uint16_t port = 0;
  const int listen_fd = mpi::detail::tcp_bind_listener("127.0.0.1", &port);
  std::vector<pid_t> pids;
  std::fflush(nullptr);  // no buffered parent output to repeat in children
  for (int r = 0; r < kRanks; ++r) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::setenv("NGSX_MPI_RANK", std::to_string(r).c_str(), 1);
      ::setenv("NGSX_MPI_SIZE", std::to_string(kRanks).c_str(), 1);
      ::setenv("NGSX_MPI_TCP_RENDEZVOUS",
               ("127.0.0.1:" + std::to_string(port)).c_str(), 1);
      if (r == 0) {
        ::setenv("NGSX_MPI_TCP_LISTEN_FD", std::to_string(listen_fd).c_str(),
                 1);
      }
      int status = 2;
      try {
        status = same_peaks(ngsx::stats::call_peaks(in.hist, in.sims, params),
                            want)
                     ? 0
                     : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: %s\n", r, e.what());
      }
      // exit, not _exit: like an exec'd rank, the child must tear its
      // world endpoint down gracefully (tcp FIN) or peers see a crash.
      std::exit(status);
    }
    pids.push_back(pid);
  }
  ::close(listen_fd);
  for (int r = 0; r < kRanks; ++r) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[static_cast<size_t>(r)], &status, 0),
              pids[static_cast<size_t>(r)]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "rank " << r << " status " << status;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportTest,
                         ::testing::Values("threads", "tcp"));

}  // namespace
