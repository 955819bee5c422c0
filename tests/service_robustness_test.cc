// Robustness of the serve daemon under deadlines, abandonment and
// socket faults: a deadline firing mid-count must come back as a
// prompt `deadline_exceeded` error while a concurrent healthy query
// stays byte-identical to its solo oracle; a client hanging up
// mid-mine must free its scheduler slot; a sweep of hundreds of
// random mid-frame kills and stalls must leave the daemon serving
// with zero leaked connections or slots; and an un-fired CancelToken
// must be provably invisible in the mined bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "common/backoff.h"
#include "common/cancellation.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/groceries_sim.h"
#include "datagen/quest_gen.h"
#include "datagen/taxonomy_gen.h"
#include "service/client.h"
#include "service/mine_service.h"
#include "service/protocol.h"
#include "service/query_scheduler.h"
#include "service/server.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"

namespace flipper {
namespace service {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- CancelToken ------------------------------------------------------

TEST(CancelTokenTest, UnfiredFiredAndDeadlineSemantics) {
  CancelToken token;
  EXPECT_FALSE(token.Fired());
  EXPECT_TRUE(token.ToStatus().ok());

  token.Cancel();
  EXPECT_TRUE(token.Fired());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);

  CancelToken lapsed;
  lapsed.SetDeadlineAfterMs(-1);  // already in the past
  EXPECT_TRUE(lapsed.Fired());
  EXPECT_EQ(lapsed.ToStatus().code(), StatusCode::kDeadlineExceeded);

  CancelToken future;
  future.SetDeadlineAfterMs(60 * 60 * 1000);
  EXPECT_FALSE(future.Fired());
  EXPECT_TRUE(future.ToStatus().ok());
}

TEST(CancelTokenTest, ChainedTokenFiresWithItsParent) {
  CancelToken parent;
  CancelToken child;
  child.ChainTo(&parent);
  EXPECT_FALSE(child.Fired());
  parent.Cancel();
  EXPECT_TRUE(child.Fired());
  // A parent fired by explicit cancel classifies as Cancelled even
  // when the child also carries a healthy deadline.
  CancelToken deadline_child;
  deadline_child.ChainTo(&parent);
  deadline_child.SetDeadlineAfterMs(60 * 60 * 1000);
  EXPECT_TRUE(deadline_child.Fired());
  EXPECT_EQ(deadline_child.ToStatus().code(), StatusCode::kCancelled);
}

// --- JitteredBackoff --------------------------------------------------

TEST(JitteredBackoffTest, DelaysStayInHalfOpenWindowAndCap) {
  JitteredBackoff::Options options;
  options.initial_ms = 10;
  options.max_ms = 100;
  JitteredBackoff backoff(42, options);
  int64_t base = 10;
  for (int i = 0; i < 12; ++i) {
    const int delay = backoff.NextDelayMs();
    EXPECT_GE(delay, base / 2) << "step " << i;
    EXPECT_LE(delay, base) << "step " << i;
    base = std::min<int64_t>(base * 2, 100);
  }
  backoff.Reset();
  const int after_reset = backoff.NextDelayMs();
  EXPECT_GE(after_reset, 5);
  EXPECT_LE(after_reset, 10);
  // Same seed, same options: the sequence is deterministic.
  JitteredBackoff twin(42, options);
  JitteredBackoff twin2(42, options);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(twin.NextDelayMs(), twin2.NextDelayMs());
  }
}

// --- scheduler deadlines and shutdown ---------------------------------

TEST(QuerySchedulerTest, QueuedDeadlineLapsesWithoutBlockingSuccessors) {
  QueryScheduler scheduler(/*max_concurrent=*/1, /*max_queued=*/8);
  auto held = scheduler.Admit();
  ASSERT_TRUE(held.ok());

  // A waiter whose deadline lapses in the waiting room leaves with
  // DeadlineExceeded...
  std::thread doomed([&]() {
    auto ticket = scheduler.Admit(std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(50));
    ASSERT_FALSE(ticket.ok());
    EXPECT_EQ(ticket.status().code(), StatusCode::kDeadlineExceeded);
  });
  while (scheduler.stats().waiting < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...and a later arrival queued behind the abandoned turn must still
  // be admitted once the held slot frees (the abandoned-turn sweep).
  std::thread successor([&]() {
    auto ticket = scheduler.Admit();
    EXPECT_TRUE(ticket.ok()) << ticket.status();
  });
  doomed.join();
  EXPECT_EQ(scheduler.stats().timed_out, 1u);
  held = Result<QueryScheduler::Ticket>(QueryScheduler::Ticket());
  successor.join();
  EXPECT_EQ(scheduler.stats().running, 0);
  EXPECT_EQ(scheduler.stats().waiting, 0);
}

TEST(QuerySchedulerTest, ShutdownFailsWaitersAndLaterAdmitsWithCancelled) {
  QueryScheduler scheduler(/*max_concurrent=*/1, /*max_queued=*/8);
  auto held = scheduler.Admit();
  ASSERT_TRUE(held.ok());
  std::thread waiter([&]() {
    auto ticket = scheduler.Admit();
    ASSERT_FALSE(ticket.ok());
    EXPECT_EQ(ticket.status().code(), StatusCode::kCancelled);
  });
  while (scheduler.stats().waiting < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Shutdown();
  waiter.join();
  auto late = scheduler.Admit();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kCancelled);
  // The running query keeps its ticket across shutdown.
  EXPECT_EQ(scheduler.stats().running, 1);
}

#ifndef _WIN32

// --- frame I/O deadlines ----------------------------------------------

TEST(FrameIoTest, SilentPeerTripsIdleAndMidFrameDeadlines) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream reader(fds[1]);

  // Idle deadline: no bytes at all.
  FrameIo io;
  io.idle_timeout_ms = 60;
  io.io_timeout_ms = 60;
  WallTimer timer;
  auto idle = ReadFrame(&reader, io);
  ASSERT_FALSE(idle.ok());
  EXPECT_EQ(idle.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(timer.ElapsedSeconds() * 1e3, 5000);

  // Mid-frame deadline: a torn length prefix then silence.
  const char partial[2] = {4, 0};
  ASSERT_EQ(::send(fds[0], partial, 2, 0), 2);
  auto torn = ReadFrame(&reader, io);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDeadlineExceeded);

  ::close(fds[0]);
  ::close(fds[1]);
}

// --- datasets and oracles ---------------------------------------------

void WriteGroceries(const std::string& path, uint32_t txns,
                    uint64_t seed) {
  GroceriesParams params;
  params.num_transactions = txns;
  params.seed = seed;
  auto data = GenerateGroceries(params);
  ASSERT_TRUE(data.ok()) << data.status();
  Status written = storage::WriteStoreFile(
      path, data->db, data->dict, data->taxonomy,
      storage::StoreWriter::Options{});
  ASSERT_TRUE(written.ok()) << written;
}

/// A store whose low-minsup mine takes seconds — long enough that a
/// sub-second deadline reliably fires mid-count.
void WriteSlowQuest(const std::string& path) {
  ItemDictionary dict;
  TaxonomyGenParams tax_params;
  auto taxonomy = GenerateBalancedTaxonomy(tax_params, &dict);
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status();
  QuestParams params;
  params.num_transactions = 30000;
  auto db = GenerateQuest(params, *taxonomy);
  ASSERT_TRUE(db.ok()) << db.status();
  Status written = storage::WriteStoreFile(
      path, *db, dict, *taxonomy, storage::StoreWriter::Options{});
  ASSERT_TRUE(written.ok()) << written;
}

/// Mine options that push the quest store's run into multi-second
/// territory: near-floor supports make almost every pair a candidate.
std::vector<std::pair<std::string, std::string>> SlowQuestParams() {
  return {{"minsup", "0.00005,0.00003,0.00003"},
          {"gamma", "0.02"},
          {"epsilon", "0.005"},
          {"format", "csv"}};
}

std::string SoloBody(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& params) {
  auto reader = storage::StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status();
  auto request = MineRequestFromParams(params);
  EXPECT_TRUE(request.ok()) << request.status();
  auto outcome =
      ExecuteMineRequest(reader->db(), reader->taxonomy(),
                         &reader->dict(), nullptr, *request, nullptr);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  return outcome->body;
}

Result<Response> MineOnce(
    const std::string& socket_path, const std::string& store,
    const std::vector<std::pair<std::string, std::string>>& params) {
  FLIPPER_ASSIGN_OR_RETURN(Client client,
                           Client::ConnectWithRetry(socket_path, 10000));
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", store);
  for (const auto& [key, value] : params) {
    request.params.emplace_back(key, value);
  }
  return client.Call(request);
}

// --- un-fired tokens are invisible ------------------------------------

TEST(CancellationTest, UnfiredTokenIsByteInvisible) {
  const std::string path = TempPath("cancel_identity.fdb");
  WriteGroceries(path, 800, 11);
  auto reader = storage::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto request = MineRequestFromParams({{"format", "csv"}});
  ASSERT_TRUE(request.ok()) << request.status();

  auto baseline =
      ExecuteMineRequest(reader->db(), reader->taxonomy(),
                         &reader->dict(), nullptr, *request, nullptr);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GT(std::count(baseline->body.begin(), baseline->body.end(),
                       '\n'),
            1);

  // Same request with a live-but-unfired token (far-future deadline):
  // the cancel plumbing may not perturb a single byte.
  CancelToken token;
  token.SetDeadlineAfterMs(60 * 60 * 1000);
  MineRequest with_token = *request;
  with_token.cancel = &token;
  auto tokened =
      ExecuteMineRequest(reader->db(), reader->taxonomy(),
                         &reader->dict(), nullptr, with_token, nullptr);
  ASSERT_TRUE(tokened.ok()) << tokened.status();
  EXPECT_EQ(tokened->body, baseline->body);
  EXPECT_FALSE(token.Fired());
  std::remove(path.c_str());
}

// --- deadline firing mid-count ----------------------------------------

TEST(ServerRobustnessTest, DeadlineFiresMidCountWhileHealthyQueryMatches) {
  const std::string quest_path = TempPath("deadline_quest.fdb");
  const std::string groceries_path = TempPath("deadline_groceries.fdb");
  WriteSlowQuest(quest_path);
  WriteGroceries(groceries_path, 1200, 3);
  const std::vector<std::pair<std::string, std::string>> healthy_params =
      {{"format", "csv"}};
  const std::string healthy_oracle =
      SoloBody(groceries_path, healthy_params);
  ASSERT_GT(std::count(healthy_oracle.begin(), healthy_oracle.end(),
                       '\n'),
            1);

  ServerOptions options;
  options.socket_path = TempPath("deadline.sock");
  options.max_concurrent = 2;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.AddStore("g", groceries_path).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kDeadlineMs = 1000;
  std::string deadline_error;
  double deadline_elapsed_ms = 0;
  std::thread doomed([&]() {
    auto client = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(client.ok()) << client.status();
    Request request;
    request.verb = "mine";
    request.params.emplace_back("store", "slow");
    for (const auto& [key, value] : SlowQuestParams()) {
      request.params.emplace_back(key, value);
    }
    request.params.emplace_back("deadline_ms",
                                std::to_string(kDeadlineMs));
    WallTimer timer;
    auto response = client->Call(request);
    deadline_elapsed_ms = timer.ElapsedSeconds() * 1e3;
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->ok);
    deadline_error = response->error;
  });

  // While the doomed query burns its deadline, an unrelated query on
  // the other store completes and stays byte-identical to its oracle.
  auto healthy = MineOnce(options.socket_path, "g", healthy_params);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_TRUE(healthy->ok) << healthy->error;
  EXPECT_EQ(healthy->body, healthy_oracle);

  doomed.join();
  EXPECT_NE(deadline_error.find("deadline_exceeded"), std::string::npos)
      << deadline_error;
  // Cooperative cancellation is polled per batch of transactions or
  // candidates and between stages: the error must come back promptly,
  // not after the full multi-second mine. Sanitizer instrumentation
  // slows each poll interval by an order of magnitude (and the host
  // may be single-core), so those builds get proportional slack; the
  // uninstrumented bound is the contract.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr int kUnwindSlack = 8;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  constexpr int kUnwindSlack = 8;
#else
  constexpr int kUnwindSlack = 2;
#endif
#else
  constexpr int kUnwindSlack = 2;
#endif
  EXPECT_LE(deadline_elapsed_ms, kUnwindSlack * kDeadlineMs)
      << "deadline took " << deadline_elapsed_ms << " ms to fire";

  EXPECT_GE(server.metrics().counter("queries.deadline_exceeded"), 1);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);

  server.Stop();
  std::remove(quest_path.c_str());
  std::remove(groceries_path.c_str());
}

// --- disconnect mid-mine ----------------------------------------------

TEST(ServerRobustnessTest, DisconnectMidMineFreesTheSchedulerSlot) {
  const std::string quest_path = TempPath("disconnect_quest.fdb");
  const std::string groceries_path = TempPath("disconnect_groceries.fdb");
  WriteSlowQuest(quest_path);
  WriteGroceries(groceries_path, 800, 5);
  const std::vector<std::pair<std::string, std::string>> healthy_params =
      {{"format", "csv"}};
  const std::string healthy_oracle =
      SoloBody(groceries_path, healthy_params);

  ServerOptions options;
  options.socket_path = TempPath("disconnect.sock");
  // One slot: the follow-up query can only run if the abandoned one
  // actually releases it.
  options.max_concurrent = 1;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.AddStore("g", groceries_path).ok());
  ASSERT_TRUE(server.Start().ok());

  // Fire the slow query and hang up mid-mine without reading a byte of
  // the response.
  {
    auto ready = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(ready.ok()) << ready.status();
  }
  auto fd = Client::ConnectRawFd(options.socket_path);
  ASSERT_TRUE(fd.ok()) << fd.status();
  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "slow");
  for (const auto& [key, value] : SlowQuestParams()) {
    request.params.emplace_back(key, value);
  }
  ASSERT_TRUE(WriteFrame(*fd, EncodeRequest(request)).ok());
  // Give the daemon time to admit and start mining, then vanish.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::close(*fd);

  // The abandoned slot must free well before the slow mine would have
  // finished; the healthy query then runs and byte-matches its oracle.
  WallTimer timer;
  auto healthy = MineOnce(options.socket_path, "g", healthy_params);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_TRUE(healthy->ok) << healthy->error;
  EXPECT_EQ(healthy->body, healthy_oracle);

  // Slot accounting: nothing still running or queued, and the daemon
  // recorded the abandonment.
  for (int i = 0; i < 100; ++i) {
    if (server.metrics().counter("queries.disconnected") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.metrics().counter("queries.disconnected"), 1);
  EXPECT_EQ(server.metrics().counter("queries.failed"), 0);

  auto stats_client =
      Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(stats_client.ok()) << stats_client.status();
  Request stats_request;
  stats_request.verb = "stats";
  auto stats = stats_client->Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->ok) << stats->error;
  EXPECT_EQ(server.metrics().gauge("scheduler.running"), 0.0);
  EXPECT_EQ(server.metrics().gauge("scheduler.waiting"), 0.0);

  server.Stop();
  std::remove(quest_path.c_str());
  std::remove(groceries_path.c_str());
}

// --- chaos sweep ------------------------------------------------------

TEST(ServerRobustnessTest, ChaosSweepLeavesTheDaemonServingAndLeakFree) {
  const std::string store_path = TempPath("chaos.fdb");
  WriteGroceries(store_path, 400, 9);
  const std::vector<std::pair<std::string, std::string>> params = {
      {"format", "csv"}};
  const std::string oracle = SoloBody(store_path, params);

  ServerOptions options;
  options.socket_path = TempPath("chaos.sock");
  options.max_concurrent = 2;
  // Chaos streams that stall must trip the daemon's I/O deadline, not
  // pin a connection thread for the default 30 s.
  options.io_timeout_ms = 500;
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());
  {
    auto ready = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(ready.ok()) << ready.status();
  }

  Request request;
  request.verb = "mine";
  request.params.emplace_back("store", "d");
  for (const auto& [key, value] : params) {
    request.params.emplace_back(key, value);
  }
  const std::string payload = EncodeRequest(request);
  const uint64_t frame_bytes = payload.size() + 4;

  // >= 200 fault plans over both directions: kills and stalls at every
  // byte region — mid-prefix, mid-payload, mid-response.
  constexpr int kRounds = 220;
  Rng rng(0xc4a05);
  int killed = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto fd = Client::ConnectRawFd(options.socket_path);
    ASSERT_TRUE(fd.ok()) << "round " << round << ": " << fd.status();
    StreamFaultPlan plan;
    switch (rng.Below(4)) {
      case 0:
        plan.kill_after_write_bytes = rng.Below(frame_bytes + 1);
        break;
      case 1:
        plan.kill_after_read_bytes = rng.Below(64);
        break;
      case 2:
        plan.stall_before_write_byte = rng.Below(frame_bytes + 1);
        plan.stall_ms = 5 + static_cast<int>(rng.Below(20));
        break;
      default:
        plan.stall_before_read_byte = rng.Below(64);
        plan.stall_ms = 5 + static_cast<int>(rng.Below(20));
        break;
    }
    FaultInjectingStream stream(*fd, plan);
    FrameIo io;
    io.idle_timeout_ms = 5000;
    io.io_timeout_ms = 5000;
    if (WriteFrame(&stream, payload, io).ok()) {
      (void)ReadFrame(&stream, io);
    }
    if (stream.killed()) ++killed;
    ::close(*fd);
  }
  // The deterministic plan mix must actually exercise the kill paths.
  EXPECT_GT(killed, 50);

  // The daemon still serves, byte-identically.
  auto after = MineOnce(options.socket_path, "d", params);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(after->ok) << after->error;
  EXPECT_EQ(after->body, oracle);

  // Zero leaks: every accepted connection was closed (poll until the
  // last torn connections finish their teardown), and no scheduler
  // slot or waiter is stuck.
  int64_t opened = 0;
  int64_t closed = 0;
  for (int i = 0; i < 500; ++i) {
    opened = server.metrics().counter("connections.opened");
    closed = server.metrics().counter("connections.closed");
    if (opened > 0 && opened == closed + 1) break;  // +1: MineOnce's
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(opened, kRounds);
  // The `after` client's connection may still be live; all torn chaos
  // connections must be fully closed.
  EXPECT_LE(opened - closed, 1) << opened << " opened, " << closed
                                << " closed";
  Request stats_request;
  stats_request.verb = "stats";
  auto stats_client =
      Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(stats_client.ok()) << stats_client.status();
  auto stats = stats_client->Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->ok) << stats->error;
  EXPECT_EQ(server.metrics().gauge("scheduler.running"), 0.0);
  EXPECT_EQ(server.metrics().gauge("scheduler.waiting"), 0.0);

  server.Stop();
  std::remove(store_path.c_str());
}

// --- ping schema / uptime ---------------------------------------------

TEST(ServerRobustnessTest, PingCarriesSchemaVersionAndUptime) {
  const std::string store_path = TempPath("ping.fdb");
  WriteGroceries(store_path, 200, 7);
  ServerOptions options;
  options.socket_path = TempPath("ping.sock");
  Server server(options);
  ASSERT_TRUE(server.AddStore("d", store_path).ok());
  ASSERT_TRUE(server.Start().ok());

  // ConnectWithRetry itself asserts the schema; also check the raw
  // meta values.
  auto client = Client::ConnectWithRetry(options.socket_path, 10000);
  ASSERT_TRUE(client.ok()) << client.status();
  Request ping;
  ping.verb = "ping";
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  ASSERT_TRUE(pong->ok);
  EXPECT_EQ(pong->Meta("schema"),
            std::to_string(kProtocolSchemaVersion));
  EXPECT_FALSE(pong->Meta("uptime_s").empty());

  server.Stop();
  std::remove(store_path.c_str());
}

// --- graceful drain ---------------------------------------------------

TEST(ServerRobustnessTest, StopCancelsInFlightQueriesWithinTheGrace) {
  const std::string quest_path = TempPath("drain_quest.fdb");
  WriteSlowQuest(quest_path);
  ServerOptions options;
  options.socket_path = TempPath("drain.sock");
  options.drain_grace_ms = 150;
  Server server(options);
  ASSERT_TRUE(server.AddStore("slow", quest_path).ok());
  ASSERT_TRUE(server.Start().ok());
  {
    auto ready = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(ready.ok()) << ready.status();
  }

  // A slow query in flight when Stop() lands must be cancelled by the
  // drain token once the grace lapses — Stop may not hang for the
  // mine's full runtime.
  std::thread victim([&]() {
    auto client = Client::ConnectWithRetry(options.socket_path, 10000);
    ASSERT_TRUE(client.ok()) << client.status();
    Request request;
    request.verb = "mine";
    request.params.emplace_back("store", "slow");
    for (const auto& [key, value] : SlowQuestParams()) {
      request.params.emplace_back(key, value);
    }
    // The daemon may or may not get the error frame out before the
    // socket is torn down; both are acceptable outcomes here.
    (void)client->Call(request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  WallTimer timer;
  server.Stop();
  EXPECT_LT(timer.ElapsedSeconds() * 1e3, 3000);
  victim.join();
  std::remove(quest_path.c_str());
}

#endif  // !_WIN32

}  // namespace
}  // namespace service
}  // namespace flipper
