// serve: the shape of examples/pwserve.cpp with one client. Reads are POSS
// and CERT verdicts over multi-fact patterns and tc(c, ?) goals, each on a
// fresh VersionedCDatabase::Read() snapshot, through the interner installed
// with SetProcessShared and the default antichain backend. Writes are
// batches of inserts or deletes published through Mutate. Snapshot publish,
// shared-mode locking, memo eviction and the antichain fixpoint on
// null-heavy index keys carry the load; DD and world search do nothing.
//
// The table is an edge chain with one shared null every 6th edge under a
// global inequality. Deletes avoid the null gaps, so the table stays a
// g-table and every verdict is in a PTIME case. The shared interner's memo
// is bounded below the run's steady-state size, so memo entries are evicted
// and recomputed: this is the workload larger than the program's caches.

#include <algorithm>
#include <array>
#include <optional>

#include "bench.h"
#include "decision/view.h"
#include "ra/expr.h"
#include "staged.h"
#include "tables/snapshot.h"
#include "tables/updates.h"
#include "worlds.h"

namespace pwbench {
namespace {

constexpr int kChain = 72;          // nodes 0..kChain
constexpr int kGap = 6;             // every kGap-th edge runs through x0
constexpr int kLabels = 30;         // labels per node in the label table
constexpr int kPatternEdges = 4;    // edge facts per verdict pattern
constexpr int kPatternLabels = 2;   // label facts per verdict pattern
constexpr size_t kBatch = 4;        // facts per published write, half labels
constexpr size_t kMemoPerShard = 64;

enum Kind { kVerdict = 0, kGoal = 1, kInsert = 2, kDelete = 3 };

struct Op {
  Kind kind = kVerdict;
  bool certainty = false;       // kVerdict: CERT, else POSS
  int c = 0;                    // kGoal
  std::vector<pw::LocatedFact> facts;  // the pattern, or the write batch
};

class Serve : public Workload {
 public:
  ~Serve() override { Release(); }

  std::array<const char*, 4> KindNames() const override {
    return {"POSS/CERT verdict on a snapshot", "tc(c,?) goal on a snapshot",
            "published insert batch", "published delete batch"};
  }
  double BlocksPerSecond() const override { return 300; }

  void Generate(uint64_t seed, int blocks) override {
    model_.emplace(kChain + 1, 1);
    model_->AddGlobalGuard(0, 0);
    edge_toggles_.clear();
    for (int i = 0; i < kChain; ++i) {
      if (i % kGap == kGap - 1) {
        model_->AddRow({pw::C(i), pw::V(0), {}});
        model_->AddRow({pw::V(0), pw::C(i + 1), {}});
      } else if (i % 3 == 1) {
        edge_toggles_.push_back({i, i + 1});
      } else {
        model_->AddRow({pw::C(i), pw::C(i + 1), {}});
      }
      // Short cuts between ground nodes, away from the null gaps.
      if (i % kGap == 1 && i + 3 <= kChain) edge_toggles_.push_back({i, i + 3});
    }
    // Toggles and labels are present in the base for even index; a block's
    // writes flip a batch and flip it back, so every op sees the base or
    // the base with one batch flipped, whatever the seed.
    for (size_t t = 0; t < edge_toggles_.size(); t += 2) {
      model_->AddRow(
          {pw::C(edge_toggles_[t][0]), pw::C(edge_toggles_[t][1]), {}});
    }
    labels_.assign(static_cast<size_t>((kChain + 1) * kLabels), 0);
    std::string label_text = "table arity 2\n";
    for (int i = 0; i <= kChain; ++i) {
      for (int j = 0; j < kLabels; ++j) {
        if ((i + j) % 3 == 0) continue;
        labels_[static_cast<size_t>(i * kLabels + j)] = 1;
        label_text += "row " + std::to_string(i) + " " + std::to_string(j) + "\n";
      }
    }
    text_ = model_->Text() + label_text;

    Rng rng(seed);
    auto pattern_edge = [&](bool certain_leaning) {
      int i = rng.Below(kChain);
      int roll = rng.Below(100);
      if (i % kGap == kGap - 1) return pw::Fact{i, rng.Below(kChain + 1)};
      if (roll < (certain_leaning ? 92 : 70)) return pw::Fact{i, i + 1};
      if (roll < 96) return pw::Fact{i, i + 2};
      return pw::Fact{rng.Below(kChain + 1), rng.Below(kChain + 1)};
    };
    Deck goal_deck(kChain + 1);
    ops_.clear();
    for (int b = 0; b < blocks; ++b) {
      // One batch of edges and labels sharing their presence in the base.
      bool present = rng.Chance(50);
      std::vector<pw::LocatedFact> batch;
      while (batch.size() < kBatch / 2) {
        int t = rng.Below(static_cast<int>(edge_toggles_.size()));
        pw::LocatedFact lf{0, edge_toggles_[static_cast<size_t>(t)]};
        if ((t % 2 == 0) == present &&
            std::find(batch.begin(), batch.end(), lf) == batch.end()) {
          batch.push_back(lf);
        }
      }
      while (batch.size() < kBatch) {
        int i = rng.Below(kChain + 1), j = rng.Below(kLabels);
        pw::LocatedFact lf{1, pw::Fact{i, j}};
        if (((i + j) % 3 != 0) == present &&
            std::find(batch.begin(), batch.end(), lf) == batch.end()) {
          batch.push_back(lf);
        }
      }
      std::array<Kind, 2> flip = present ? std::array<Kind, 2>{kDelete, kInsert}
                                         : std::array<Kind, 2>{kInsert, kDelete};
      std::vector<int> slots = {0, 1, 2, 3};
      rng.Shuffle(slots);
      std::sort(slots.begin(), slots.begin() + 2);
      std::array<Op, 4> block;
      for (int w = 0; w < 2; ++w) {
        Op& op = block[static_cast<size_t>(slots[static_cast<size_t>(w)])];
        op.kind = flip[static_cast<size_t>(w)];
        op.facts = batch;
      }
      Op& verdict = block[static_cast<size_t>(slots[2])];
      verdict.kind = kVerdict;
      verdict.certainty = rng.Chance(50);
      for (int f = 0; f < kPatternEdges; ++f) {
        verdict.facts.push_back({0, pattern_edge(verdict.certainty)});
      }
      for (int f = 0; f < kPatternLabels; ++f) {
        verdict.facts.push_back(
            {1, pw::Fact{rng.Below(kChain + 1), rng.Below(kLabels)}});
      }
      Op& goal = block[static_cast<size_t>(slots[3])];
      goal.kind = kGoal;
      goal.c = goal_deck.Draw(rng);
      ops_.insert(ops_.end(), block.begin(), block.end());
    }
  }

  void Setup() override {
    Release();
    interner_ = std::make_unique<pw::ConditionInterner>();
    versioned_ = std::make_unique<pw::VersionedCDatabase>(
        ParseDatabase(text_), *interner_);
    pw::ConditionInterner::SetProcessShared(interner_.get());
    interner_->SetMemoCapacity(kMemoPerShard);
    for (int c = 0; c <= kChain; ++c) Goal(c);
    for (size_t i = 0; i < ops_.size() && i < 64; ++i) {
      if (ops_[i].kind == kVerdict) Verdict(ops_[i], nullptr, nullptr);
    }
  }

  size_t NumOps() const override { return ops_.size(); }
  int KindOf(size_t op) const override { return ops_[op].kind; }
  bool IsWrite(size_t op) const override { return ops_[op].kind >= kInsert; }
  uint64_t OpDigest(size_t op) const override {
    const Op& o = ops_[op];
    uint64_t h = Mix(Mix(Mix(kDigestSeed, o.kind), o.certainty),
                     static_cast<uint64_t>(o.c));
    for (const pw::LocatedFact& lf : o.facts) {
      h = Mix(Mix(Mix(h, lf.relation), static_cast<uint64_t>(lf.fact[0])),
              static_cast<uint64_t>(lf.fact[1]));
    }
    return h;
  }

  Answer Run(size_t op) override {
    const Op& o = ops_[op];
    switch (o.kind) {
      case kVerdict:
        return Verdict(o, nullptr, nullptr);
      case kGoal:
        return Goal(o.c);
      default:
        Publish(o, nullptr, nullptr);
        return Answer();
    }
  }

  Answer RunStaged(size_t op, Tracer& tracer, LayerTotals& totals) override {
    const Op& o = ops_[op];
    LayerTotals::InternerMark mark = LayerTotals::Mark(*interner_);
    Answer answer;
    if (o.kind == kVerdict) {
      answer = Verdict(o, &tracer, &totals);
    } else if (o.kind == kGoal) {
      pw::VersionedCDatabase::Snapshot snap = Read(&tracer, &totals);
      answer.table = StagedGoal(TransitiveClosure(), snap.db, 1,
                                {o.c, std::nullopt}, GoalOptions(), tracer,
                                totals);
      answer.digest = TableDigest(answer.table);
    } else {
      Publish(o, &tracer, &totals);
    }
    totals.AddInternerDelta(*interner_, mark);
    return answer;
  }

  bool Check(size_t op, const Answer& answer) override {
    const Op& o = ops_[op];
    switch (o.kind) {
      case kVerdict: {
        std::vector<pw::Fact> edges;
        bool labels = true;
        for (const pw::LocatedFact& lf : o.facts) {
          if (lf.relation == 0) {
            edges.push_back(lf.fact);
          } else {
            labels = labels && Label(lf.fact);
          }
        }
        bool expected = labels && (o.certainty ? model_->CertainlyAll(edges)
                                               : model_->PossiblyAll(edges));
        return answer.verdict == expected;
      }
      case kGoal:
        return model_->CheckReachAnswer(o.c, answer.table);
      case kInsert:
      case kDelete:
        for (const pw::LocatedFact& lf : o.facts) {
          if (lf.relation == 1) {
            Label(lf.fact) = o.kind == kInsert;
          } else if (o.kind == kInsert) {
            model_->Insert(lf.fact[0], lf.fact[1]);
          } else {
            model_->Delete(lf.fact[0], lf.fact[1]);
          }
        }
        return true;
    }
    return false;
  }

  bool Checkpoint() override {
    pw::VersionedCDatabase::Snapshot snap = versioned_->Read();
    std::vector<uint8_t> seen(labels_.size(), 0);
    for (const pw::CRow& row : snap.db.table(1).rows()) {
      seen[static_cast<size_t>(row.tuple[0].constant() * kLabels +
                               row.tuple[1].constant())] = 1;
    }
    return seen == labels_ && model_->CheckEdges(snap.db.table(0));
  }

  void Observe(size_t op, double ms) override {
    if (ops_[op].kind == kVerdict) verdict_ms_[ops_[op].certainty].push_back(ms);
  }

  std::vector<std::string> Notes() const override {
    std::string split;
    for (int c = 0; c < 2; ++c) {
      std::vector<double> v = verdict_ms_[c];
      if (v.empty()) continue;
      std::sort(v.begin(), v.end());
      split += std::string(c ? "; CERT" : "; POSS") + " median " +
               std::to_string(v[v.size() / 2]) + " ms over " +
               std::to_string(v.size());
    }
    return {"serve: shared interner memo evictions " +
            std::to_string(interner_->memo_evictions()) + ", conjunctions " +
            std::to_string(interner_->num_conjunctions()) + split};
  }

 private:
  void Release() {
    pw::ConditionInterner::SetProcessShared(nullptr);
    versioned_.reset();
    interner_.reset();
  }

  pw::DatalogCTableOptions GoalOptions() const {
    pw::DatalogCTableOptions options;
    options.interner = interner_.get();
    options.condition_backend = pw::ConditionBackendKind::kConjunctions;
    return options;
  }

  pw::VersionedCDatabase::Snapshot Read(Tracer* tracer, LayerTotals* totals) {
    if (tracer == nullptr) return versioned_->Read();
    ++totals->reads;
    Tracer::Scope span(*tracer, "tables", "VersionedCDatabase::Read",
                       &totals->read_ms);
    return versioned_->Read();
  }

  Answer Verdict(const Op& o, Tracer* tracer, LayerTotals* totals) {
    pw::VersionedCDatabase::Snapshot snap = Read(tracer, totals);
    VerdictQuery q;
    q.problem = o.certainty ? Problem::kCert : Problem::kPoss;
    q.view = &view_;
    q.db = &snap.db;
    q.pattern = &o.facts;
    Answer answer;
    answer.verdict =
        tracer ? DecideStaged(q, *tracer, *totals) : Decide(q);
    answer.digest = answer.verdict;
    return answer;
  }

  Answer Goal(int c) {
    pw::VersionedCDatabase::Snapshot snap = versioned_->Read();
    Answer answer;
    answer.table = pw::DatalogQueryOnCTables(TransitiveClosure(), snap.db, 1,
                                             {c, std::nullopt}, nullptr,
                                             GoalOptions());
    answer.digest = TableDigest(answer.table);
    return answer;
  }

  void Publish(const Op& o, Tracer* tracer, LayerTotals* totals) {
    auto mutate = [&](pw::CDatabase& db) {
      // The COW clones of both tables.
      std::array<pw::CTable*, 2> tables = {&db.mutable_table(0),
                                           &db.mutable_table(1)};
      std::optional<Tracer::Scope> span;
      if (tracer) {
        span.emplace(*tracer, "tables",
                     o.kind == kInsert ? "InsertFactInPlace"
                                       : "DeleteFactInPlace",
                     &totals->update_ms);
      }
      for (const pw::LocatedFact& lf : o.facts) {
        pw::CTable& table = *tables[lf.relation];
        if (o.kind == kInsert) {
          pw::InsertFactInPlace(table, lf.fact);
        } else {
          pw::DeleteDelta delta = pw::DeleteFactInPlace(table, lf.fact);
          if (totals) totals->guard_rows += delta.added.size();
        }
      }
    };
    if (tracer == nullptr) {
      versioned_->Mutate(mutate);
      return;
    }
    ++totals->publishes;
    ++totals->updates;
    if (o.kind == kDelete) ++totals->deletes;
    Tracer::Scope span(*tracer, "tables", "VersionedCDatabase::Mutate",
                       &totals->publish_ms);
    versioned_->Mutate(mutate);
  }

  uint8_t& Label(const pw::Fact& f) {
    return labels_[static_cast<size_t>(f[0] * kLabels + f[1])];
  }

  std::optional<EdgeModel> model_;
  std::vector<pw::Fact> edge_toggles_;
  std::vector<uint8_t> labels_;  // the label table, as the model sees it
  std::string text_;
  std::vector<Op> ops_;
  std::array<std::vector<double>, 2> verdict_ms_;  // POSS, CERT
  // Both tables as a positive-existential RA view: POSS decides through the
  // image (Thm 5.2(1)), CERT through the image and a per-fact tautology on
  // the default (antichain) condition backend.
  pw::View view_ = pw::View::Ra({pw::RaExpr::Rel(0, 2), pw::RaExpr::Rel(1, 2)});
  std::unique_ptr<pw::ConditionInterner> interner_;
  std::unique_ptr<pw::VersionedCDatabase> versioned_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe() { return std::make_unique<Serve>(); }

}  // namespace pwbench
