// Tests for the minimpi message-passing runtime: point-to-point semantics,
// collectives, barriers, and failure propagation — the properties the
// paper's Algorithm 1 / Algorithm 2 communication relies on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "mpi/minimpi.h"

namespace ngsx::mpi {
namespace {

TEST(MiniMpi, RankAndSize) {
  std::vector<int> seen(4, -1);
  run(4, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 4);
    seen[static_cast<size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(seen[static_cast<size_t>(r)], r);
  }
}

TEST(MiniMpi, SingleRankWorks) {
  run(1, [](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    comm.barrier();
    EXPECT_EQ(comm.allreduce_sum(5), 5);
  });
}

TEST(MiniMpi, PointToPoint) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, "hello");
    } else {
      EXPECT_EQ(comm.recv(0, 7), "hello");
    }
  });
}

TEST(MiniMpi, FifoPerSourceAndTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) {
        comm.send_value(1, 3, i);
      }
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST(MiniMpi, TagsAreIndependentChannels) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 111);
      comm.send_value(1, 2, 222);
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(MiniMpi, SourcesAreIndependentChannels) {
  run(3, [](Comm& comm) {
    if (comm.rank() != 2) {
      comm.send_value(2, 0, comm.rank());
    } else {
      EXPECT_EQ(comm.recv_value<int>(1, 0), 1);
      EXPECT_EQ(comm.recv_value<int>(0, 0), 0);
    }
  });
}

TEST(MiniMpi, SendDoesNotBlock) {
  // Buffered sends: rank 0 can send many messages before any receive.
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 1000; ++i) {
        comm.send_value(1, 0, i);
      }
      comm.send_value(1, 1, -1);  // completion marker
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 1), -1);
      for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 0), i);
      }
    }
  });
}

TEST(MiniMpi, SendVectorRoundTrip) {
  run(2, [](Comm& comm) {
    std::vector<double> payload = {1.5, -2.5, 3.75};
    if (comm.rank() == 0) {
      comm.send_vector(1, 0, payload);
    } else {
      EXPECT_EQ(comm.recv_vector<double>(0, 0), payload);
    }
  });
}

TEST(MiniMpi, EmptyMessage) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, "");
    } else {
      EXPECT_EQ(comm.recv(0, 0), "");
    }
  });
}

TEST(MiniMpi, Probe) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.probe(1, 9));
      comm.send_value(1, 9, 1);
      comm.barrier();
    } else {
      comm.barrier();
      EXPECT_TRUE(comm.probe(0, 9));
      comm.recv_value<int>(0, 9);
      EXPECT_FALSE(comm.probe(0, 9));
    }
  });
}

TEST(MiniMpi, BarrierSynchronizes) {
  // Phase counter: all ranks must observe every rank in phase 1 before any
  // rank enters phase 2.
  std::atomic<int> in_phase1{0};
  std::atomic<bool> violated{false};
  run(8, [&](Comm& comm) {
    in_phase1.fetch_add(1);
    comm.barrier();
    if (in_phase1.load() != 8) {
      violated.store(true);
    }
  });
  EXPECT_FALSE(violated.load());
}

TEST(MiniMpi, RepeatedBarriers) {
  std::atomic<int> counter{0};
  run(4, [&](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      if (comm.rank() == 0) {
        counter.fetch_add(1);
      }
      comm.barrier();
      EXPECT_EQ(counter.load(), round + 1);
      comm.barrier();
    }
  });
}

TEST(MiniMpi, Bcast) {
  run(5, [](Comm& comm) {
    std::string payload = comm.rank() == 2 ? "the-data" : "";
    EXPECT_EQ(comm.bcast(2, payload), "the-data");
  });
}

TEST(MiniMpi, BcastValue) {
  run(4, [](Comm& comm) {
    double v = comm.rank() == 0 ? 6.25 : 0.0;
    EXPECT_DOUBLE_EQ(comm.bcast_value(0, v), 6.25);
  });
}

TEST(MiniMpi, GatherCollectsInRankOrder) {
  run(4, [](Comm& comm) {
    std::string local(1, static_cast<char>('a' + comm.rank()));
    auto parts = comm.gather(0, local);
    if (comm.rank() == 0) {
      ASSERT_EQ(parts.size(), 4u);
      EXPECT_EQ(parts[0], "a");
      EXPECT_EQ(parts[1], "b");
      EXPECT_EQ(parts[2], "c");
      EXPECT_EQ(parts[3], "d");
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST(MiniMpi, GatherAtNonZeroRoot) {
  run(3, [](Comm& comm) {
    auto vals = comm.gather_values<int>(2, comm.rank() * 10);
    if (comm.rank() == 2) {
      EXPECT_EQ(vals, (std::vector<int>{0, 10, 20}));
    }
  });
}

TEST(MiniMpi, Allgather) {
  run(4, [](Comm& comm) {
    std::string local = std::to_string(comm.rank());
    auto parts = comm.allgather(local);
    ASSERT_EQ(parts.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(parts[static_cast<size_t>(r)], std::to_string(r));
    }
  });
}

TEST(MiniMpi, ReduceSum) {
  run(6, [](Comm& comm) {
    int64_t total = comm.reduce_sum<int64_t>(0, comm.rank());
    if (comm.rank() == 0) {
      EXPECT_EQ(total, 0 + 1 + 2 + 3 + 4 + 5);
    }
  });
}

TEST(MiniMpi, AllreduceSum) {
  run(7, [](Comm& comm) {
    double total = comm.allreduce_sum(1.5);
    EXPECT_DOUBLE_EQ(total, 7 * 1.5);
  });
}

TEST(MiniMpi, RepeatedCollectivesInterleaved) {
  run(4, [](Comm& comm) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(comm.allreduce_sum(i), 4 * i);
      auto all = comm.allgather(std::to_string(comm.rank() + i));
      EXPECT_EQ(all[1], std::to_string(1 + i));
      comm.barrier();
    }
  });
}

TEST(MiniMpi, ManyRanks) {
  const int n = 64;
  int64_t total = 0;
  run(n, [&](Comm& comm) {
    int64_t sum = comm.allreduce_sum<int64_t>(comm.rank());
    if (comm.rank() == 0) {
      total = sum;
    }
  });
  EXPECT_EQ(total, static_cast<int64_t>(n) * (n - 1) / 2);
}

TEST(MiniMpi, RankFailurePropagates) {
  EXPECT_THROW(
      run(4,
          [](Comm& comm) {
            if (comm.rank() == 2) {
              throw UsageError("rank 2 exploded");
            }
            // Other ranks block; the abort must wake them.
            comm.barrier();
            comm.recv(2, 0);
          }),
      UsageError);
}

TEST(MiniMpi, FailureWakesBlockedReceivers) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       comm.recv(1, 5);  // never sent
                     } else {
                       throw FormatError("bad input");
                     }
                   }),
               FormatError);
}

TEST(MiniMpi, InvalidRankChecked) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       comm.send(5, 0, "x");
                     }
                   }),
               Error);
}

TEST(MiniMpi, ZeroRanksRejected) {
  EXPECT_THROW(run(0, [](Comm&) {}), Error);
}

TEST(MiniMpi, UnknownTransportNameRejected) {
  // The first name is the retired shared-memory backend: it must now fail
  // like any other unknown name, before a rank starts, and the message
  // must list the valid ones.
  for (const char* name : {"shm", "carrier-pigeon"}) {
    ::setenv("NGSX_MPI_TRANSPORT", name, 1);
    bool ran = false;
    try {
      run(2, [&](Comm&) { ran = true; });
      ADD_FAILURE() << name << " was accepted";
    } catch (const UsageError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("threads"), std::string::npos) << what;
      EXPECT_NE(what.find("tcp"), std::string::npos) << what;
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
    EXPECT_THROW(transport(), UsageError) << name;
    EXPECT_FALSE(ran) << name;
    ::unsetenv("NGSX_MPI_TRANSPORT");
  }
}

TEST(MiniMpi, PipelineNeighborExchange) {
  // The Algorithm-1 shape: every rank r != 0 sends to r-1.
  const int n = 8;
  std::vector<uint64_t> got(n, 0);
  run(n, [&](Comm& comm) {
    int r = comm.rank();
    if (r != 0) {
      comm.send_value<uint64_t>(r - 1, 17, static_cast<uint64_t>(r) * 100);
    }
    if (r != n - 1) {
      got[static_cast<size_t>(r)] = comm.recv_value<uint64_t>(r + 1, 17);
    }
    comm.barrier();
  });
  for (int r = 0; r + 1 < n; ++r) {
    EXPECT_EQ(got[static_cast<size_t>(r)],
              static_cast<uint64_t>(r + 1) * 100);
  }
}

}  // namespace
}  // namespace ngsx::mpi
