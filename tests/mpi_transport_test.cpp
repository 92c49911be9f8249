// Transport parity: the minimpi semantics contract (docs/DISTRIBUTED.md)
// run against every backend. Each test sets NGSX_MPI_TRANSPORT and calls
// the ordinary mpi::run() entry point; for tcp that forks real child
// processes, so rank bodies assert with NGSX_CHECK (which propagates
// through the abort/rethrow path) rather than gtest macros (which would be
// invisible in a child).

#include "mpi/minimpi.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

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
    // reductions and scans
    NGSX_CHECK(c.allreduce_sum<int64_t>(r + 1) == 10);
    NGSX_CHECK(c.allreduce_max<int>(r * r) == 9);
    NGSX_CHECK(c.exscan_sum<int>(1) == r);
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

INSTANTIATE_TEST_SUITE_P(Backends, TransportTest,
                         ::testing::Values("threads", "tcp"));

}  // namespace
