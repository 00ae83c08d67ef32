#include "metrics/emitter.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dissemination/event_engine.hpp"

namespace ltnc::metrics {
namespace {

TEST(RunRecord, KeepsInsertionOrderAndOverwritesInPlace) {
  RunRecord r;
  r.set("a", std::uint64_t{1});
  r.set("b", 2.5);
  r.set("c", std::string("x"));
  r.set("b", 3.5);  // overwrite keeps position
  ASSERT_EQ(r.fields().size(), 3u);
  EXPECT_EQ(r.fields()[0].key, "a");
  EXPECT_EQ(r.fields()[1].key, "b");
  EXPECT_EQ(std::get<double>(r.fields()[1].value), 3.5);
  EXPECT_TRUE(r.has("c"));
  EXPECT_FALSE(r.has("d"));
  EXPECT_EQ(std::get<std::uint64_t>(r.at("a")), 1u);
  EXPECT_THROW(r.at("missing"), std::logic_error);
}

TEST(Emitter, JsonArrayOfObjects) {
  RunRecord r;
  r.set("name", std::string("run \"one\"\n"));
  r.set("n", std::uint64_t{42});
  r.set("rate", 0.5);
  r.set("ok", true);
  std::ostringstream out;
  write_json(out, {r, r});
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\": \"run \\\"one\\\"\\n\""), std::string::npos);
  EXPECT_NE(text.find("\"n\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"rate\": 0.5"), std::string::npos);
  EXPECT_NE(text.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("},"), std::string::npos);  // two objects
}

TEST(Emitter, CsvHeaderAndRows) {
  RunRecord a;
  a.set("x", std::uint64_t{1});
  a.set("y", 2.0);
  RunRecord b;
  b.set("x", std::uint64_t{3});
  b.set("y", 4.0);
  std::ostringstream out;
  write_csv(out, {a, b});
  EXPECT_EQ(out.str(), "x,y\n1,2\n3,4\n");
}

TEST(Emitter, CsvEscapesStringsPerRfc4180) {
  RunRecord a;
  a.set("plain", std::string("hello"));
  a.set("comma", std::string("a,b"));
  a.set("quote", std::string("say \"hi\""));
  a.set("newline", std::string("two\nlines"));
  std::ostringstream out;
  write_csv(out, {a});
  EXPECT_EQ(out.str(),
            "plain,comma,quote,newline\n"
            "hello,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n");
}

TEST(Emitter, CsvRejectsMismatchedLayouts) {
  RunRecord a;
  a.set("x", std::uint64_t{1});
  RunRecord b;
  b.set("z", std::uint64_t{2});
  std::ostringstream out;
  EXPECT_THROW(write_csv(out, {a, b}), std::logic_error);
}

TEST(Emitter, SimRunRecordCarriesTheSharedSchema) {
  dissem::SimConfig cfg;
  cfg.num_nodes = 24;
  cfg.k = 16;
  cfg.payload_bytes = 16;
  cfg.seed = 7;
  cfg.source_pushes_per_round = 2;
  const dissem::SimResult res = dissem::run_event_simulation(
      session::Scheme::kLtnc, cfg, dissem::EngineMode::kScale);
  const RunRecord r = sim_run_record(res);
  EXPECT_EQ(std::get<std::string>(r.at("scheme")), "LTNC");
  EXPECT_EQ(std::get<std::uint64_t>(r.at("num_nodes")), 24u);
  EXPECT_EQ(std::get<std::uint64_t>(r.at("wire_bytes_total")),
            res.traffic.wire_bytes_total());
  EXPECT_TRUE(std::get<bool>(r.at("all_complete")));
  // Both emitters accept the record.
  std::ostringstream json, csv;
  write_json(json, {r});
  write_csv(csv, {r});
  EXPECT_NE(json.str().find("\"nodes_complete\": 24"), std::string::npos);
  EXPECT_NE(csv.str().find("nodes_complete"), std::string::npos);
}

}  // namespace
}  // namespace ltnc::metrics
