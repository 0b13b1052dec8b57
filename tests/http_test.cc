// HTTP serving front-end suite (DESIGN.md §11): adversarial/property tests
// for the incremental request parser (truncations, split reads, oversized
// frames, bad chunking, pipelining), socket-level end-to-end tests pinning
// HTTP-served scores bitwise to the in-process engine, overload tests
// checking the 429/503 shed mapping against serve::Stats, injected
// accept/read/write faults (one connection drops, the engine is untouched),
// and determinism tests for the load-generator request stream.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/fault_injector.h"
#include "common/net_util.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "gtest/gtest.h"
#include "models/bk_ddn.h"
#include "serve/http_parser.h"
#include "serve/http_server.h"
#include "serve/inference_engine.h"
#include "serve/json_util.h"
#include "serve/load_gen.h"
#include "testing/inference_engine_test_peer.h"

namespace kddn {
namespace serve {

/// Reaches into HttpServer to substitute its activity clock (before Start())
/// and to read its wake pipe's write end (after Start()).
class HttpServerTestPeer {
 public:
  static void UseClock(HttpServer* server,
                       std::chrono::steady_clock::time_point (*now)()) {
    server->now_ = now;
  }

  static int WakeWriteFd(const HttpServer& server) {
    return server.wake_->write_end.get();
  }
};

}  // namespace serve

namespace {

using serve::HttpParser;
using serve::HttpParserOptions;
using serve::InferenceEngineTestPeer;

/// Polls `done` until it holds, failing the test after a minute rather than
/// hanging it. Only how long the wait lasts depends on the host's speed,
/// never what the test then observes.
template <typename Predicate>
void AwaitCondition(Predicate done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "condition still false after a minute";
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Shared fixture: one small dataset + briefly-trained BK-DDN + frozen
// snapshot, built once per process.
// ---------------------------------------------------------------------------
struct HttpWorld {
  kb::KnowledgeBase kb;
  std::unique_ptr<kb::ConceptExtractor> extractor;
  data::DatasetOptions data_options;
  data::MortalityDataset dataset;
  std::unique_ptr<models::BkDdn> model;
  std::unique_ptr<serve::FrozenModel> frozen;
};

HttpWorld& World() {
  static HttpWorld* world = [] {
    auto* w = new HttpWorld();
    w->kb = kb::KnowledgeBase::BuildDefault();
    w->extractor = std::make_unique<kb::ConceptExtractor>(&w->kb);
    synth::CohortConfig config;
    config.num_patients = 150;
    config.seed = 7;
    const synth::Cohort cohort = synth::Cohort::Generate(config, w->kb);
    w->data_options.max_words = 64;
    w->data_options.max_concepts = 32;
    w->dataset =
        data::MortalityDataset::Build(cohort, *w->extractor, w->data_options);

    models::ModelConfig model_config;
    model_config.word_vocab_size = w->dataset.word_vocab().size();
    model_config.concept_vocab_size = w->dataset.concept_vocab().size();
    model_config.embedding_dim = 6;
    model_config.num_filters = 4;
    model_config.seed = 9;
    w->model = std::make_unique<models::BkDdn>(model_config);
    core::TrainOptions train_options;
    train_options.epochs = 1;
    train_options.batch_size = 16;
    core::Trainer trainer(train_options);
    trainer.Train(w->model.get(), w->dataset.train(), w->dataset.validation(),
                  synth::Horizon::kInHospital);
    w->frozen = std::make_unique<serve::FrozenModel>(
        serve::FrozenModel::Freeze(*w->model));
    return w;
  }();
  return *world;
}

serve::NotePipeline WorldPipeline() {
  serve::NotePipeline pipeline;
  pipeline.word_vocab = &World().dataset.word_vocab();
  pipeline.concept_vocab = &World().dataset.concept_vocab();
  pipeline.extractor = World().extractor.get();
  pipeline.options = World().data_options;
  return pipeline;
}

/// Raw round trip on a fresh connection: writes `request_text`, reads until
/// the server closes. Callers send Connection: close (or provoke an error
/// response, which also closes). Reads with bare ::read so an armed
/// http.read/write fault can only fire on the server side.
std::string RawRoundTrip(int port, const std::string& request_text) {
  net::ScopedFd fd(net::ConnectTcp("127.0.0.1", port));
  net::WriteAll(fd.get(), request_text.data(), request_text.size());
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(fd.get(), buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  return response;
}

int StatusOf(const std::string& response) {
  const size_t space = response.find(' ');
  if (space == std::string::npos) {
    return 0;
  }
  return std::atoi(response.c_str() + space + 1);
}

std::string ScoreRequest(const std::string& note, bool close = true) {
  const std::string body = "{\"note\": \"" + serve::JsonEscape(note) + "\"}";
  return "POST /v1/score HTTP/1.1\r\nHost: t\r\n" +
         std::string(close ? "Connection: close\r\n" : "") +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

// ---------------------------------------------------------------------------
// JSON codec.
// ---------------------------------------------------------------------------
TEST(JsonUtilTest, ParsesFlatObjectsAndEscapes) {
  std::map<std::string, serve::JsonValue> fields;
  std::string error;
  ASSERT_TRUE(serve::ParseFlatJsonObject(
      "{\"note\": \"a \\\"b\\\" \\n \\u0041\", \"n\": -2.5e1, "
      "\"flag\": true, \"nil\": null}",
      &fields, &error))
      << error;
  EXPECT_EQ(fields["note"].string_value, "a \"b\" \n A");
  EXPECT_EQ(fields["n"].number_value, -25.0);
  EXPECT_TRUE(fields["flag"].bool_value);
  EXPECT_EQ(fields["nil"].kind, serve::JsonValue::Kind::kNull);
}

TEST(JsonUtilTest, RejectsMalformedPayloads) {
  const char* bad[] = {
      "",
      "{",
      "{\"a\"}",
      "{\"a\": }",
      "{\"a\": \"unterminated}",
      "{\"a\": 1,}",
      "{\"a\": {\"nested\": 1}}",
      "{\"a\": [1]}",
      "{\"a\": 1} trailing",
      "{\"a\": \"bad \\q escape\"}",
      "{\"a\": \"\\ud800\"}",
      "not json at all",
  };
  for (const char* text : bad) {
    std::map<std::string, serve::JsonValue> fields;
    std::string error;
    EXPECT_FALSE(serve::ParseFlatJsonObject(text, &fields, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonUtilTest, FloatRoundTripsBitwise) {
  const float cases[] = {0.0f,      1.0f,         0.5f,     1.0f / 3.0f,
                         0.1234567f, 0.99999994f, 1e-30f,   3.4028235e38f,
                         1.1754944e-38f, 0.73105857f};
  for (const float value : cases) {
    const std::string text = serve::FloatToJson(value);
    const float back = std::strtof(text.c_str(), nullptr);
    EXPECT_EQ(back, value) << text;
  }
}

// ---------------------------------------------------------------------------
// Incremental parser: happy paths under arbitrary fragmentation.
// ---------------------------------------------------------------------------
const char kPostWire[] =
    "POST /v1/score HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    "Content-Length: 15\r\n\r\n{\"note\": \"abc\"}";

TEST(HttpParserTest, ParsesOneShotPost) {
  HttpParser parser;
  ASSERT_EQ(parser.Consume(kPostWire, sizeof(kPostWire) - 1),
            HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().target, "/v1/score");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_EQ(parser.request().body, "{\"note\": \"abc\"}");
  ASSERT_NE(parser.request().FindHeader("content-type"), nullptr);
  EXPECT_TRUE(parser.request().KeepAlive());
}

TEST(HttpParserTest, ByteAtATimeFeedMatchesOneShot) {
  const std::string wire(kPostWire);
  HttpParser parser;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.Consume(&wire[i], 1), HttpParser::Status::kNeedMore)
        << "completed early at byte " << i;
  }
  ASSERT_EQ(parser.Consume(&wire[wire.size() - 1], 1),
            HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().body, "{\"note\": \"abc\"}");
}

TEST(HttpParserTest, EverySplitPointParsesIdentically) {
  const std::string wire(kPostWire);
  for (size_t split = 1; split < wire.size(); ++split) {
    HttpParser parser;
    EXPECT_EQ(parser.Consume(wire.data(), split), HttpParser::Status::kNeedMore)
        << "split at " << split;
    ASSERT_EQ(parser.Consume(wire.data() + split, wire.size() - split),
              HttpParser::Status::kComplete)
        << "split at " << split;
    EXPECT_EQ(parser.request().body, "{\"note\": \"abc\"}");
  }
}

TEST(HttpParserTest, ChunkedBodyReassemblesAcrossSplits) {
  const std::string wire =
      "POST /v1/score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5;ext=1\r\npedia\r\n0\r\nTrailer: x\r\n\r\n";
  for (size_t split = 1; split < wire.size(); ++split) {
    HttpParser parser;
    parser.Consume(wire.data(), split);
    ASSERT_EQ(parser.Consume(wire.data() + split, wire.size() - split),
              HttpParser::Status::kComplete)
        << "split at " << split;
    EXPECT_EQ(parser.request().body, "Wikipedia");
  }
}

TEST(HttpParserTest, PipelinedRequestsAdvanceInOrder) {
  const std::string wire = std::string(kPostWire) +
                           "GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /v1/stats HTTP/1.1\r\n\r\n";
  HttpParser parser;
  ASSERT_EQ(parser.Consume(wire.data(), wire.size()),
            HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().target, "/v1/score");
  ASSERT_EQ(parser.Advance(), HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_TRUE(parser.request().body.empty());
  ASSERT_EQ(parser.Advance(), HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().target, "/v1/stats");
  EXPECT_EQ(parser.Advance(), HttpParser::Status::kNeedMore);
}

TEST(HttpParserTest, Http10DefaultsToCloseAndHeaderCanOverride) {
  HttpParser parser;
  const std::string wire = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_EQ(parser.Consume(wire.data(), wire.size()),
            HttpParser::Status::kComplete);
  EXPECT_FALSE(parser.request().KeepAlive());

  HttpParser parser2;
  const std::string wire2 =
      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(parser2.Consume(wire2.data(), wire2.size()),
            HttpParser::Status::kComplete);
  EXPECT_FALSE(parser2.request().KeepAlive());
}

// ---------------------------------------------------------------------------
// Incremental parser: adversarial inputs must fail with the right status —
// never crash, never complete with garbage.
// ---------------------------------------------------------------------------
struct BadWire {
  const char* wire;
  int status;
};

TEST(HttpParserTest, MalformedFramesYieldTheRightStatus) {
  const BadWire cases[] = {
      {"GARBAGE\r\n\r\n", 400},                         // No spaces.
      {"GET /\r\n\r\n", 400},                           // Missing version.
      {"GET / HTTP/1.1 extra\r\n\r\n", 400},            // Four tokens.
      {" / HTTP/1.1\r\n\r\n", 400},                     // Empty method.
      {"GET / HTTP/2.0\r\n\r\n", 505},                  // Unsupported version.
      {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},   // Header sans colon.
      {"GET / HTTP/1.1\r\nName : v\r\n\r\n", 400},      // Space before colon.
      {"GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n", 413},
      {"POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: "
       "chunked\r\n\r\n", 400},                         // CL + TE.
      {"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 501},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nxyz\r\n", 400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
       "4\r\nWikiNOPE", 400},                           // Missing chunk CRLF.
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
       "fffffffffffffff\r\n", 413},                     // Astronomical chunk.
  };
  for (const BadWire& bad : cases) {
    HttpParser parser;
    EXPECT_EQ(parser.Consume(bad.wire, std::strlen(bad.wire)),
              HttpParser::Status::kError)
        << bad.wire;
    EXPECT_EQ(parser.error_status(), bad.status) << bad.wire;
    // Errors are sticky: more bytes cannot resurrect the stream.
    EXPECT_EQ(parser.Consume("GET / HTTP/1.1\r\n\r\n", 18),
              HttpParser::Status::kError);
  }
}

TEST(HttpParserTest, OversizedFramesAreRefusedNotBuffered) {
  HttpParserOptions options;
  options.max_header_bytes = 128;
  options.max_body_bytes = 64;

  // Headers past the budget -> 431, even with no newline ever arriving.
  HttpParser headers(options);
  const std::string endless(200, 'A');
  EXPECT_EQ(headers.Consume(endless.data(), endless.size()),
            HttpParser::Status::kError);
  EXPECT_EQ(headers.error_status(), 431);

  // Declared body past the budget -> 413 before any body byte arrives.
  HttpParser body(options);
  const std::string big =
      "POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n";
  EXPECT_EQ(body.Consume(big.data(), big.size()), HttpParser::Status::kError);
  EXPECT_EQ(body.error_status(), 413);

  // Chunked body accumulating past the budget -> 413 at the guilty chunk.
  HttpParser chunked(options);
  const std::string chunks =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "20\r\n0123456789abcdef0123456789abcdef\r\n"
      "21\r\n";
  EXPECT_EQ(chunked.Consume(chunks.data(), chunks.size()),
            HttpParser::Status::kError);
  EXPECT_EQ(chunked.error_status(), 413);
}

TEST(HttpParserTest, TruncationsNeverCompleteOrCrash) {
  const std::string wires[] = {
      kPostWire,
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n0\r\n\r\n",
  };
  for (const std::string& wire : wires) {
    for (size_t cut = 0; cut + 1 < wire.size(); ++cut) {
      HttpParser parser;
      const HttpParser::Status status = parser.Consume(wire.data(), cut);
      // A strict prefix of a valid request is never complete; it may only
      // be "need more" (or an error once a framing decision was possible).
      EXPECT_NE(status, HttpParser::Status::kComplete)
          << "prefix of length " << cut << " of: " << wire;
    }
  }
}

TEST(HttpParserTest, MutationFuzzNeverCrashes) {
  // Deterministic mutation fuzz: flip/insert/delete bytes of a valid
  // request and feed the result in random-sized slices. The parser must
  // always land in a defined state; sanitizers patrol for the rest.
  const std::string base(kPostWire);
  Rng rng(0xFADE);
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string wire = base;
    const int mutations = 1 + rng.UniformInt(4);
    for (int m = 0; m < mutations; ++m) {
      const int kind = rng.UniformInt(3);
      const size_t at = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(wire.size())));
      if (kind == 0) {
        wire[at] = static_cast<char>(rng.UniformInt(256));
      } else if (kind == 1) {
        wire.insert(at, 1, static_cast<char>(rng.UniformInt(256)));
      } else {
        wire.erase(at, 1);
      }
    }
    HttpParser parser;
    size_t fed = 0;
    HttpParser::Status status = HttpParser::Status::kNeedMore;
    while (fed < wire.size() && status == HttpParser::Status::kNeedMore) {
      const size_t chunk = std::min<size_t>(
          1 + static_cast<size_t>(rng.UniformInt(16)), wire.size() - fed);
      status = parser.Consume(wire.data() + fed, chunk);
      fed += chunk;
    }
    if (status == HttpParser::Status::kError) {
      EXPECT_GE(parser.error_status(), 400);
      EXPECT_LE(parser.error_status(), 505);
    }
  }
}

// ---------------------------------------------------------------------------
// Socket end-to-end: served scores are bitwise-equal to the in-process
// engine, from N concurrent client threads.
// ---------------------------------------------------------------------------
TEST(HttpServerTest, ServedScoresBitwiseEqualInProcessUnderConcurrency) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();

  const std::vector<std::string> notes = serve::BuildNotePool(11, 12);
  // In-process references through the very same engine (bitwise contract:
  // transport must not change a single bit).
  std::vector<float> reference;
  for (const std::string& note : notes) {
    reference.push_back(engine.ScoreNote(note));
  }

  constexpr int kClients = 4;
  std::vector<std::vector<float>> served(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> transport_failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::ScopedFd fd(net::ConnectTcp("127.0.0.1", server.port()));
      for (const std::string& note : notes) {
        serve::RequestOutcome outcome;
        if (!serve::ScoreOverHttp(fd.get(), note, &outcome) ||
            outcome.status != 200) {
          transport_failures.fetch_add(1);
          served[static_cast<size_t>(c)].push_back(-1.0f);
        } else {
          served[static_cast<size_t>(c)].push_back(outcome.score);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  server.Stop();

  EXPECT_EQ(transport_failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(served[static_cast<size_t>(c)].size(), notes.size());
    for (size_t i = 0; i < notes.size(); ++i) {
      EXPECT_EQ(served[static_cast<size_t>(c)][i], reference[i])
          << "client " << c << " note " << i
          << ": HTTP transport changed the score bits";
    }
  }
  const serve::HttpServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.responses_2xx,
            static_cast<int64_t>(kClients * notes.size()));
  EXPECT_EQ(stats.dropped_connections, 0);
}

TEST(HttpServerTest, HealthzStatsRoutingAndErrors) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();
  const int port = server.port();

  const std::string health = RawRoundTrip(
      port, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(StatusOf(health), 200);
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.find("BK-DDN"), std::string::npos);

  const std::string stats = RawRoundTrip(
      port, "GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(StatusOf(stats), 200);
  EXPECT_NE(stats.find("\"engine\""), std::string::npos);
  EXPECT_NE(stats.find("\"server\""), std::string::npos);

  EXPECT_EQ(StatusOf(RawRoundTrip(
                port, "GET /nowhere HTTP/1.1\r\nConnection: close\r\n\r\n")),
            404);
  EXPECT_EQ(StatusOf(RawRoundTrip(
                port, "GET /v1/score HTTP/1.1\r\nConnection: close\r\n\r\n")),
            405);
  EXPECT_EQ(StatusOf(RawRoundTrip(
                port, "PUT /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")),
            405);
  EXPECT_EQ(
      StatusOf(RawRoundTrip(
          port,
          "POST /v1/score HTTP/1.1\r\nConnection: close\r\n"
          "Content-Length: 9\r\n\r\nnot json!")),
      400);
  EXPECT_EQ(
      StatusOf(RawRoundTrip(
          port,
          "POST /v1/score HTTP/1.1\r\nConnection: close\r\n"
          "Content-Length: 13\r\n\r\n{\"other\": 42}")),
      400);
  EXPECT_EQ(StatusOf(RawRoundTrip(port, "GARBAGE\r\n\r\n")), 400);
  server.Stop();
}

TEST(HttpServerTest, AdminSwapRequiresBearerTokenWhenConfigured) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServerOptions options;
  options.auth_token = "s3cret-rotate-me";
  serve::HttpServer server(&engine, options);
  server.Start();
  const int port = server.port();
  const std::string swap_body = "{\"fingerprint\": \"ab\"}";

  // No Authorization header at all: 401 with the machine-readable reason and
  // the WWW-Authenticate challenge (raw round trip so headers are visible).
  const std::string bare = RawRoundTrip(
      port, "POST /v1/admin/swap HTTP/1.1\r\nConnection: close\r\n"
            "Content-Length: " + std::to_string(swap_body.size()) +
            "\r\n\r\n" + swap_body);
  EXPECT_EQ(StatusOf(bare), 401);
  EXPECT_NE(bare.find("WWW-Authenticate: Bearer"), std::string::npos) << bare;
  EXPECT_NE(bare.find("\"error\": \"unauthorized\""), std::string::npos)
      << bare;

  int status = 0;
  std::string body;
  // Wrong scheme and wrong token are both refused the same way.
  ASSERT_TRUE(serve::HttpRequestJson(
      "127.0.0.1", port, "POST", "/v1/admin/swap", swap_body,
      {{"Authorization", "Basic s3cret-rotate-me"}}, &status, &body));
  EXPECT_EQ(status, 401) << body;
  ASSERT_TRUE(serve::HttpRequestJson(
      "127.0.0.1", port, "POST", "/v1/admin/swap", swap_body,
      {{"Authorization", "Bearer s3cret-rotate-mf"}}, &status, &body));
  EXPECT_EQ(status, 401) << body;
  EXPECT_NE(body.find("invalid bearer token"), std::string::npos) << body;

  // The right token clears the gate: with no registry attached the request
  // proceeds to the 501 no-registry answer, so auth is no longer the refusal.
  ASSERT_TRUE(serve::HttpRequestJson(
      "127.0.0.1", port, "POST", "/v1/admin/swap", swap_body,
      {{"Authorization", "Bearer s3cret-rotate-me"}}, &status, &body));
  EXPECT_EQ(status, 501) << body;
  EXPECT_NE(body.find("no-registry"), std::string::npos) << body;

  // Liveness probes never need credentials, token or not.
  EXPECT_EQ(StatusOf(RawRoundTrip(
                port, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")),
            200);
  const serve::HttpServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.responses_4xx, 3);
  server.Stop();
}

TEST(HttpServerTest, StatsAndHealthzCarryLifecycleFields) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();
  const int port = server.port();

  // Both endpoints share the lifecycle block: the fingerprint that is
  // actually scoring, the snapshot inventory, and process uptime.
  const std::string fingerprint_field =
      "\"active_fingerprint\": \"" +
      serve::FingerprintToHex(engine.active_fingerprint()) + "\"";
  for (const char* target : {"/v1/stats", "/healthz"}) {
    const std::string response = RawRoundTrip(
        port, "GET " + std::string(target) +
                  " HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(StatusOf(response), 200) << target;
    EXPECT_NE(response.find(fingerprint_field), std::string::npos) << target;
    // No registry attached: the engine's own snapshot is the whole inventory.
    EXPECT_NE(response.find("\"snapshot_count\": 1"), std::string::npos)
        << target;
    EXPECT_NE(response.find("\"uptime_ms\": "), std::string::npos) << target;
  }
  // Without a registry there is no registry block and no admin route.
  const std::string stats = RawRoundTrip(
      port, "GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(stats.find("\"registry\""), std::string::npos);
  server.Stop();
}

/// The idle-reap test's clock: milliseconds the test has advanced it by.
std::atomic<int64_t> g_manual_clock_ms{0};

std::chrono::steady_clock::time_point ManualNow() {
  return std::chrono::steady_clock::time_point(
      std::chrono::milliseconds(g_manual_clock_ms.load()));
}

TEST(HttpServerTest, IdleConnectionsAreReapedActiveOnesAreNot) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServerOptions options;
  options.idle_timeout_ms = 100;
  serve::HttpServer server(&engine, options);
  // Connection ages are read off a clock only this test advances, so how
  // long a request takes on a loaded host cannot age a connection.
  g_manual_clock_ms.store(0);
  serve::HttpServerTestPeer::UseClock(&server, &ManualNow);
  server.Start();
  const std::string note = serve::BuildNotePool(41, 1)[0];

  // One connection goes quiet after connecting; one sends a request every
  // 50 ms of clock time, half the timeout. Both are accepted at time 0: the
  // idle peer is ahead of the active one in the accept queue, and the active
  // one is served before the clock first moves.
  net::ScopedFd idle_fd(net::ConnectTcp("127.0.0.1", server.port()));
  net::ScopedFd active_fd(net::ConnectTcp("127.0.0.1", server.port()));
  for (int i = 0; i < 6; ++i) {
    serve::RequestOutcome outcome;
    ASSERT_TRUE(serve::ScoreOverHttp(active_fd.get(), note, &outcome)) << i;
    EXPECT_EQ(outcome.status, 200) << i;
    g_manual_clock_ms.fetch_add(50);
  }

  // At 300 ms the idle peer is past the timeout, so the reaper has closed it
  // (or will on its next tick): its socket reads EOF without us ever sending
  // a byte.
  struct pollfd poller = {idle_fd.get(), POLLIN, 0};
  ASSERT_GT(::poll(&poller, 1, 5000), 0) << "idle connection never reaped";
  char byte = 0;
  EXPECT_EQ(::read(idle_fd.get(), &byte, 1), 0);

  // The active connection survived the whole time and still serves.
  serve::RequestOutcome outcome;
  ASSERT_TRUE(serve::ScoreOverHttp(active_fd.get(), note, &outcome));
  EXPECT_EQ(outcome.status, 200);

  const serve::HttpServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.closed_idle, 1);
  // The reap is an orderly close, not a protocol failure.
  EXPECT_EQ(stats.dropped_connections, 0);
  server.Stop();
}

TEST(HttpServerTest, OversizedFramesGet431And413OverTheWire) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServerOptions options;
  options.max_header_bytes = 256;
  options.max_body_bytes = 128;
  serve::HttpServer server(&engine, options);
  server.Start();

  const std::string big_headers =
      "GET / HTTP/1.1\r\nX-Filler: " + std::string(400, 'a') + "\r\n\r\n";
  EXPECT_EQ(StatusOf(RawRoundTrip(server.port(), big_headers)), 431);

  const std::string big_note(300, 'x');
  EXPECT_EQ(StatusOf(RawRoundTrip(server.port(), ScoreRequest(big_note))),
            413);
  server.Stop();
}

TEST(HttpServerTest, PipelinedScoresAnswerInOrder) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();

  const std::vector<std::string> notes = serve::BuildNotePool(13, 2);
  const float ref0 = engine.ScoreNote(notes[0]);
  const float ref1 = engine.ScoreNote(notes[1]);
  // Both requests in one write; the second carries Connection: close so the
  // response stream has a definite end.
  const std::string wire =
      ScoreRequest(notes[0], /*close=*/false) + ScoreRequest(notes[1]);
  const std::string responses = RawRoundTrip(server.port(), wire);
  server.Stop();

  const size_t second = responses.find("HTTP/1.1", 8);
  ASSERT_NE(second, std::string::npos) << responses;
  const std::string first_body = responses.substr(0, second);
  const std::string second_body = responses.substr(second);
  EXPECT_EQ(StatusOf(first_body), 200);
  EXPECT_EQ(StatusOf(second_body), 200);
  EXPECT_NE(first_body.find(serve::FloatToJson(ref0)), std::string::npos)
      << "first pipelined response must carry the first note's score";
  EXPECT_NE(second_body.find(serve::FloatToJson(ref1)), std::string::npos)
      << "second pipelined response must carry the second note's score";
}

// ---------------------------------------------------------------------------
// Overload: queue-cap 429s match serve::Stats, deadline sheds map to 503.
// ---------------------------------------------------------------------------
TEST(HttpServerTest, QueueCapOverloadYields429MatchingEngineStats) {
  serve::EngineOptions engine_options;
  engine_options.max_queue = 2;
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline(),
                                engine_options);
  serve::HttpServer server(&engine);
  server.Start();

  // With the batcher held, two of six simultaneous requests fill the queue
  // and the other four are shed; releasing the hold then serves the two.
  InferenceEngineTestPeer::Hold(&engine);
  const std::vector<std::string> notes = serve::BuildNotePool(17, 6);
  std::vector<std::string> responses(notes.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < notes.size(); ++c) {
    clients.emplace_back([&, c] {
      responses[c] = RawRoundTrip(server.port(), ScoreRequest(notes[c]));
    });
  }
  AwaitCondition(
      [&] { return InferenceEngineTestPeer::Queued(&engine) == 2; });
  AwaitCondition([&] { return engine.stats().shed == 4; });
  InferenceEngineTestPeer::Release(&engine);
  for (std::thread& client : clients) {
    client.join();
  }

  int ok = 0;
  int shed = 0;
  for (const std::string& response : responses) {
    const int status = StatusOf(response);
    if (status == 200) {
      ++ok;
    } else if (status == 429) {
      ++shed;
      EXPECT_NE(response.find("queue-full"), std::string::npos) << response;
      EXPECT_NE(response.find("Retry-After:"), std::string::npos) << response;
      EXPECT_NE(response.find("retry_after_ms"), std::string::npos)
          << response;
    } else {
      ADD_FAILURE() << "unexpected status " << status << ": " << response;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 4);

  const serve::StatsSnapshot engine_stats = engine.stats();
  const serve::HttpServerStatsSnapshot server_stats = server.stats();
  EXPECT_EQ(engine_stats.shed, shed)
      << "server 429 count must mirror the engine's shed counter";
  EXPECT_EQ(server_stats.responses_429, shed);
  EXPECT_EQ(server_stats.responses_2xx, ok);
  EXPECT_EQ(engine_stats.requests, ok);
  server.Stop();
}

TEST(HttpServerTest, DeadlineShedMapsTo503WithRetryHint) {
  serve::EngineOptions engine_options;
  engine_options.deadline_ms = 1;
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline(),
                                engine_options);
  serve::HttpServer server(&engine);
  server.Start();
  InferenceEngineTestPeer::Hold(&engine);
  std::string response;
  std::thread client([&] {
    response = RawRoundTrip(server.port(),
                            ScoreRequest(serve::BuildNotePool(19, 1)[0]));
  });
  // Outwait the deadline behind the hold: the request is stale when the
  // batcher first sees it.
  AwaitCondition(
      [&] { return InferenceEngineTestPeer::Queued(&engine) == 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  InferenceEngineTestPeer::Release(&engine);
  client.join();
  server.Stop();

  EXPECT_EQ(StatusOf(response), 503);
  EXPECT_NE(response.find("deadline-exceeded"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Retry-After:"), std::string::npos) << response;
  EXPECT_EQ(engine.stats().timeouts, 1);
  EXPECT_EQ(server.stats().responses_503, 1);
}

TEST(HttpServerTest, DegradedExtractionSurfacesInTheResponse) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();
  const std::string note = serve::BuildNotePool(23, 1)[0];
  std::string response;
  {
    FaultInjector::ScopedFault fault("serve.encode.extract");
    response = RawRoundTrip(server.port(), ScoreRequest(note));
  }
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("\"degraded\": true"), std::string::npos)
      << response;
  EXPECT_EQ(engine.stats().degraded, 1);
  // Recovered extractor serves the real concepts (and the real flag) again.
  const std::string healthy = RawRoundTrip(server.port(), ScoreRequest(note));
  EXPECT_EQ(StatusOf(healthy), 200);
  EXPECT_NE(healthy.find("\"degraded\": false"), std::string::npos)
      << healthy;
  server.Stop();
}

TEST(HttpServerTest, CompletionAfterStopWritesAPipeItStillHolds) {
  auto engine = std::make_unique<serve::InferenceEngine>(
      World().frozen.get(), WorldPipeline());
  InferenceEngineTestPeer::Hold(engine.get());
  auto server = std::make_unique<serve::HttpServer>(engine.get());
  server->Start();
  const int wake_fd = serve::HttpServerTestPeer::WakeWriteFd(*server);
  // A client sends a score and never reads the answer.
  net::ScopedFd client(net::ConnectTcp("127.0.0.1", server->port()));
  const std::string request =
      ScoreRequest(serve::BuildNotePool(53, 1)[0], /*close=*/false);
  net::WriteAll(client.get(), request.data(), request.size());
  AwaitCondition(
      [&] { return InferenceEngineTestPeer::Queued(engine.get()) == 1; });

  // The server goes first, as in a stack that declares the engine before
  // the server. Nothing opens an fd from here on, so the number cannot be
  // reused: it stays open because the queued request's notifier holds it.
  server.reset();
  EXPECT_NE(::fcntl(wake_fd, F_GETFD), -1) << std::strerror(errno);
  // Joining the batcher drops the last notifier, which closes the pipe.
  InferenceEngineTestPeer::Release(engine.get());
  engine.reset();
  EXPECT_EQ(::fcntl(wake_fd, F_GETFD), -1);
  EXPECT_EQ(errno, EBADF);
}

// ---------------------------------------------------------------------------
// Fault injection at the socket layer: one connection drops, the engine and
// every other connection are untouched.
// ---------------------------------------------------------------------------
TEST(HttpFaultTest, FailedScoreAnswers500AndTheConnectionServesOn) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();
  const std::string note = serve::BuildNotePool(47, 1)[0];
  const float reference = engine.ScoreNote(note);

  net::ScopedFd fd(net::ConnectTcp("127.0.0.1", server.port()));
  serve::RequestOutcome outcome;
  {
    FaultInjector::ScopedFault fault("serve.score");
    ASSERT_TRUE(serve::ScoreOverHttp(fd.get(), note, &outcome));
  }
  EXPECT_EQ(outcome.status, 500);
  // The same keep-alive connection scores the next request bitwise.
  ASSERT_TRUE(serve::ScoreOverHttp(fd.get(), note, &outcome));
  EXPECT_EQ(outcome.status, 200);
  EXPECT_EQ(outcome.score, reference);
  EXPECT_EQ(server.stats().responses_5xx, 1);
  EXPECT_EQ(server.stats().dropped_connections, 0);
  server.Stop();
}

TEST(HttpFaultTest, MidResponseWriteFaultDropsOneConnectionOnly) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();
  const std::string note = serve::BuildNotePool(29, 1)[0];
  const float reference = engine.ScoreNote(note);

  std::string faulted;
  {
    FaultInjector::ScopedFault fault("http.write");
    faulted = RawRoundTrip(server.port(), ScoreRequest(note));
  }
  // The injected fault killed the response mid-flight: the client saw the
  // connection close with no (complete) answer.
  EXPECT_EQ(faulted.find("HTTP/1.1 200"), std::string::npos) << faulted;

  // The engine is not poisoned: the next connection scores bitwise as ever.
  const std::string healthy = RawRoundTrip(server.port(), ScoreRequest(note));
  EXPECT_EQ(StatusOf(healthy), 200);
  EXPECT_NE(healthy.find(serve::FloatToJson(reference)), std::string::npos);
  EXPECT_GE(server.stats().dropped_connections, 1);
  server.Stop();
}

TEST(HttpFaultTest, MidRequestReadFaultDropsOneConnectionOnly) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();
  const std::string note = serve::BuildNotePool(31, 1)[0];

  {
    FaultInjector::ScopedFault fault("http.read");
    const std::string faulted =
        RawRoundTrip(server.port(), ScoreRequest(note));
    EXPECT_TRUE(faulted.empty()) << faulted;
  }
  const std::string healthy = RawRoundTrip(server.port(), ScoreRequest(note));
  EXPECT_EQ(StatusOf(healthy), 200);
  EXPECT_GE(server.stats().dropped_connections, 1);
  server.Stop();
}

TEST(HttpFaultTest, AcceptFaultDropsThePendingConnectionOnly) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();
  const std::string note = serve::BuildNotePool(37, 1)[0];

  {
    FaultInjector::ScopedFault fault("http.accept");
    // The TCP handshake succeeds (kernel backlog), then the server-side
    // accept path crashes and closes the fd: we observe EOF.
    const std::string dropped =
        RawRoundTrip(server.port(), ScoreRequest(note));
    EXPECT_TRUE(dropped.empty()) << dropped;
  }
  const std::string healthy = RawRoundTrip(server.port(), ScoreRequest(note));
  EXPECT_EQ(StatusOf(healthy), 200);
  EXPECT_GE(server.stats().dropped_connections, 1);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Load-harness determinism: the request stream is a pure function of the
// seed; the report upholds the BENCH_http invariants.
// ---------------------------------------------------------------------------
TEST(LoadGenTest, NotePoolAndScheduleAreSeedDeterministic) {
  const auto pool_a = serve::BuildNotePool(99, 10);
  const auto pool_b = serve::BuildNotePool(99, 10);
  EXPECT_EQ(pool_a, pool_b);
  EXPECT_NE(pool_a, serve::BuildNotePool(100, 10));
  for (const std::string& note : pool_a) {
    EXPECT_FALSE(note.empty());
  }

  const auto schedule_a = serve::BuildRequestSchedule(99, 50, 10);
  const auto schedule_b = serve::BuildRequestSchedule(99, 50, 10);
  EXPECT_EQ(schedule_a, schedule_b);
  EXPECT_NE(schedule_a, serve::BuildRequestSchedule(7, 50, 10));
  ASSERT_EQ(schedule_a.size(), 50u);
  for (const int index : schedule_a) {
    EXPECT_GE(index, 0);
    EXPECT_LT(index, 10);
  }
}

TEST(LoadGenTest, TwoRunsSameSeedReplayTheSameStreamAndHoldInvariants) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();

  serve::LoadGenOptions options;
  options.port = server.port();
  options.requests = 40;
  options.concurrency = 2;
  options.seed = 123;
  options.note_pool_size = 8;

  const serve::LoadGenReport run_a = serve::RunLoadGen(options);
  const serve::LoadGenReport run_b = serve::RunLoadGen(options);
  server.Stop();

  // Identical request streams: request i carried the same pool note in both
  // runs, and both match the published schedule.
  const auto schedule = serve::BuildRequestSchedule(123, 40, 8);
  ASSERT_EQ(run_a.outcomes.size(), 40u);
  ASSERT_EQ(run_b.outcomes.size(), 40u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(run_a.outcomes[i].note_index, schedule[i]);
    EXPECT_EQ(run_b.outcomes[i].note_index, schedule[i]);
  }

  for (const serve::LoadGenReport* run : {&run_a, &run_b}) {
    EXPECT_EQ(run->ok, 40);
    EXPECT_EQ(run->transport_errors, 0);
    EXPECT_EQ(run->http_errors, 0);
    // The BENCH_http.json invariant block (scripts/check_bench.py).
    EXPECT_LE(run->p50_ms, run->p99_ms);
    EXPECT_LE(run->p99_ms, run->p999_ms);
    EXPECT_GE(run->shed_rate, 0.0);
    EXPECT_LE(run->shed_rate, 1.0);
    EXPECT_GT(run->achieved_rps, 0.0);
    const std::string json = run->ToJson();
    for (const char* field : {"\"p50_ms\"", "\"p99_ms\"", "\"p999_ms\"",
                              "\"shed_rate\"", "\"achieved_rps\""}) {
      EXPECT_NE(json.find(field), std::string::npos) << json;
    }
  }
}

TEST(LoadGenTest, OpenLoopModeHonoursTheSchedule) {
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline());
  serve::HttpServer server(&engine);
  server.Start();

  serve::LoadGenOptions options;
  options.port = server.port();
  options.requests = 20;
  options.concurrency = 2;
  options.qps = 200.0;  // 20 requests over ~100ms.
  options.seed = 5;
  options.note_pool_size = 4;
  const serve::LoadGenReport report = serve::RunLoadGen(options);
  server.Stop();

  EXPECT_EQ(report.ok + report.shed_queue_full + report.shed_deadline +
                report.http_errors + report.transport_errors,
            20);
  EXPECT_EQ(report.transport_errors, 0);
  // Open loop cannot finish faster than the schedule's span.
  EXPECT_GE(report.wall_ms, (20 - 1) * 1000.0 / 200.0 * 0.5);
  EXPECT_EQ(report.offered_qps, 200.0);
}

TEST(LoadGenTest, ShedRetriesAreCappedAndReportedSeparately) {
  // The batcher is held with a 2-slot queue, so of six simultaneous requests
  // two are admitted and the rest draw 429s — and keep drawing them on every
  // retry, because the queue only drains once the hold is released.
  serve::EngineOptions engine_options;
  engine_options.max_queue = 2;
  serve::InferenceEngine engine(World().frozen.get(), WorldPipeline(),
                                engine_options);
  serve::HttpServerOptions server_options;
  server_options.retry_after_ms = 5;
  serve::HttpServer server(&engine, server_options);
  server.Start();

  serve::LoadGenOptions options;
  options.port = server.port();
  options.requests = 6;
  options.concurrency = 6;
  options.seed = 43;
  options.note_pool_size = 3;
  options.max_retries = 3;
  options.retry_backoff_ms = 2;
  options.retry_backoff_cap_ms = 16;
  InferenceEngineTestPeer::Hold(&engine);
  serve::LoadGenReport report;
  std::thread generator([&] { report = serve::RunLoadGen(options); });
  // Four requests, each shed once and then on all three retries.
  AwaitCondition([&] { return engine.stats().shed == 16; });
  InferenceEngineTestPeer::Release(&engine);
  generator.join();
  server.Stop();

  // Admitted requests scored once the hold was released; shed ones had
  // exhausted their retry budget before that. Either way every slot in the
  // stream has a final outcome.
  EXPECT_EQ(report.ok + report.shed_queue_full, 6);
  EXPECT_EQ(report.ok, 2);
  EXPECT_EQ(report.shed_queue_full, 4);
  // Retry traffic is reported on its own, never folded into the 6 organic
  // outcomes: each shed request burned exactly its full budget.
  EXPECT_EQ(report.retried_requests, 4);
  EXPECT_EQ(report.total_retries, 4 * 3);
  for (const serve::RequestOutcome& outcome : report.outcomes) {
    if (outcome.status == 429) {
      EXPECT_EQ(outcome.retries, 3);
    } else {
      EXPECT_EQ(outcome.status, 200);
      EXPECT_EQ(outcome.retries, 0);
    }
  }
}

TEST(LoadGenTest, RetryOptionValidationIsLoud) {
  serve::LoadGenOptions options;
  options.port = 1;  // Never dialled: validation fires first.
  options.max_retries = -1;
  EXPECT_THROW(serve::RunLoadGen(options), KddnError);
  options.max_retries = 2;
  options.retry_backoff_ms = -3;
  EXPECT_THROW(serve::RunLoadGen(options), KddnError);
  options.retry_backoff_ms = 8;
  options.retry_backoff_cap_ms = 4;  // Cap below base.
  EXPECT_THROW(serve::RunLoadGen(options), KddnError);
}

}  // namespace
}  // namespace kddn
