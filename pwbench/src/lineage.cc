// lineage: a live MaterializedView of conditioned transitive closure on the
// decision-diagram backend, under interleaved tc(c, ?) goals, tc(a, b)
// lineage goals, inserts and deletes. The fixpoint, magic rewrite, IVM and
// the DD backend do all the work; the decision layer does none.
//
// The base is an edge chain 0 -> 1 -> ... -> 14 in which every 8th edge runs
// through one shared null (rows (i, x0), (x0, i+1)), plus one fresh null x1
// on an edge out of the middle of the chain. Updates toggle a fixed set of
// facts: a quarter of the chain's ground edges and short cuts out of and
// into the null gaps, so deleting a short cut guards a null row.

#include <algorithm>
#include <optional>

#include "bench.h"
#include "datalog/ivm.h"
#include "staged.h"
#include "tables/updates.h"
#include "worlds.h"

namespace pwbench {
namespace {

constexpr int kChain = 14;     // nodes 0..kChain
constexpr int kGap = 8;        // every kGap-th edge runs through x0
constexpr int kWorldsPerCheck = 256;

enum Kind { kGoal = 0, kInsert = 1, kDelete = 2, kPoint = 3 };

struct Op {
  Kind kind = kGoal;
  int a = 0;
  int b = -1;
};

class Lineage : public Workload {
 public:
  std::array<const char*, 4> KindNames() const override {
    return {"tc(c,?) goal, DD backend", "MaterializedView::Insert",
            "MaterializedView::Delete", "tc(a,b) lineage goal, DD backend"};
  }
  double BlocksPerSecond() const override { return 170; }

  void Generate(uint64_t seed, int blocks) override {
    model_.emplace(kChain + 1, 2);
    toggles_.clear();
    const int fresh_from = kChain / 2 + 1;
    for (int i = 0; i < kChain; ++i) {
      if (i % kGap == kGap - 1) {
        model_->AddRow({pw::C(i), pw::V(0), {}});
        model_->AddRow({pw::V(0), pw::C(i + 1), {}});
        if (i + 2 <= kChain) toggles_.emplace_back(i, i + 2);
        toggles_.emplace_back(i - 1, i + 1);
      } else if (i % 4 == 1) {
        toggles_.emplace_back(i, i + 1);
      } else {
        model_->AddRow({pw::C(i), pw::C(i + 1), {}});
      }
    }
    model_->AddRow({pw::C(fresh_from), pw::V(1), {}});
    toggles_.emplace_back(fresh_from, fresh_from + 2);
    // Every other toggle is present in the base; every block flips one
    // toggle and flips it back, so each op sees the base or the base with
    // one fact flipped, whatever the seed.
    for (size_t t = 0; t < toggles_.size(); t += 2) {
      model_->AddRow({pw::C(toggles_[t].first), pw::C(toggles_[t].second), {}});
    }
    text_ = model_->Text();
    // The warm-up pass flips every toggle once, so the guards deletes put
    // on null rows exist before the first timed op.
    for (size_t t = 0; t < toggles_.size(); ++t) {
      for (Kind k : Flip(t)) ApplyToModel(k, toggles_[t]);
    }

    Rng rng(seed);
    Deck toggle_deck(static_cast<int>(toggles_.size()));
    Deck goal_deck(kChain + 1);
    Deck point_deck((kChain + 1) * (kChain + 1));
    ops_.clear();
    for (int b = 0; b < blocks; ++b) {
      size_t t = static_cast<size_t>(toggle_deck.Draw(rng));
      std::array<Kind, 2> flip = Flip(t);
      // Two of the four slots (in order) take the flip, the others a goal
      // and a point goal in either order.
      std::vector<int> slots = {0, 1, 2, 3};
      rng.Shuffle(slots);
      std::sort(slots.begin(), slots.begin() + 2);
      std::array<Op, 4> block;
      block[static_cast<size_t>(slots[0])] = {flip[0], toggles_[t].first,
                                               toggles_[t].second};
      block[static_cast<size_t>(slots[1])] = {flip[1], toggles_[t].first,
                                               toggles_[t].second};
      int point = point_deck.Draw(rng);
      block[static_cast<size_t>(slots[2])] = {kGoal, goal_deck.Draw(rng), -1};
      block[static_cast<size_t>(slots[3])] = {kPoint, point / (kChain + 1),
                                               point % (kChain + 1)};
      ops_.insert(ops_.end(), block.begin(), block.end());
    }
    const int worlds = (kChain + 2) * (kChain + 3);
    stride_ = (worlds + kWorldsPerCheck - 1) / kWorldsPerCheck;
  }

  void Setup() override {
    view_.reset();
    // Each set-up starts from a cold interner, so repeated set-ups measure
    // the same work.
    pw::ConditionInterner::Global().Clear();
    pw::MaterializedViewOptions options;
    options.eval.condition_backend = pw::ConditionBackendKind::kDecisionDiagrams;
    view_.emplace(TransitiveClosure(), ParseDatabase(text_), options);
    shadow_ = view_->base().table(0);
    for (size_t t = 0; t < toggles_.size(); ++t) {
      pw::Fact fact{toggles_[t].first, toggles_[t].second};
      for (Kind k : Flip(t)) {
        if (k == kInsert) {
          view_->Insert(0, fact);
          pw::InsertFactInPlace(shadow_, fact);
        } else {
          view_->Delete(0, fact);
          pw::DeleteFactInPlace(shadow_, fact);
        }
      }
    }
    for (int a = 0; a <= kChain; ++a) {
      Goal(a, -1);
      for (int b = a % 2; b <= kChain; b += 2) Goal(a, b);
    }
  }

  size_t NumOps() const override { return ops_.size(); }
  int KindOf(size_t op) const override { return ops_[op].kind; }
  bool IsWrite(size_t op) const override {
    return ops_[op].kind == kInsert || ops_[op].kind == kDelete;
  }
  uint64_t OpDigest(size_t op) const override {
    const Op& o = ops_[op];
    return Mix(Mix(Mix(kDigestSeed, o.kind), static_cast<uint64_t>(o.a)),
               static_cast<uint64_t>(o.b));
  }

  Answer Run(size_t op) override {
    const Op& o = ops_[op];
    switch (o.kind) {
      case kGoal:
      case kPoint:
        return Goal(o.a, o.b);
      case kInsert:
        view_->Insert(0, pw::Fact{o.a, o.b});
        return Answer();
      case kDelete:
        view_->Delete(0, pw::Fact{o.a, o.b});
        return Answer();
    }
    return Answer();
  }

  Answer RunStaged(size_t op, Tracer& tracer, LayerTotals& totals) override {
    const Op& o = ops_[op];
    pw::ConditionInterner& interner = pw::ConditionInterner::Global();
    LayerTotals::InternerMark mark = LayerTotals::Mark(interner);
    Answer answer;
    if (o.kind == kGoal || o.kind == kPoint) {
      answer.table = StagedGoal(TransitiveClosure(), view_->base(), 1,
                                Bindings(o.a, o.b), GoalOptions(), tracer,
                                totals);
      answer.digest = TableDigest(answer.table);
    } else {
      pw::Fact fact{o.a, o.b};
      pw::IvmStats before = view_->stats();
      if (o.kind == kInsert) {
        {
          Tracer::Scope span(tracer, "datalog", "MaterializedView::Insert",
                             nullptr);
          view_->Insert(0, fact);
        }
        Tracer::Scope span(tracer, "tables", "InsertFactInPlace",
                           &totals.update_ms);
        pw::InsertFactInPlace(shadow_, fact);
        tracer.Exclude(span.ElapsedMs());
      } else {
        {
          Tracer::Scope span(tracer, "datalog", "MaterializedView::Delete",
                             nullptr);
          view_->Delete(0, fact);
        }
        Tracer::Scope span(tracer, "tables", "DeleteFactInPlace",
                           &totals.update_ms);
        pw::DeleteDelta delta = pw::DeleteFactInPlace(shadow_, fact);
        tracer.Exclude(span.ElapsedMs());
        totals.guard_rows += delta.added.size();
        ++totals.deletes;
      }
      ++totals.updates;
      pw::IvmStats after = view_->stats();
      if (o.kind == kInsert) {
        ++totals.view_inserts;
        totals.seeded += after.inserts_seeded - before.inserts_seeded;
      } else {
        ++totals.view_deletes;
        totals.covered += after.deletes_covered - before.deletes_covered;
        totals.overdeleted += after.rows_overdeleted - before.rows_overdeleted;
      }
      totals.rederived +=
          after.fixpoint.derived_rows - before.fixpoint.derived_rows;
    }
    totals.AddInternerDelta(interner, mark);
    return answer;
  }

  bool Check(size_t op, const Answer& answer) override {
    const Op& o = ops_[op];
    int phase = static_cast<int>(op % static_cast<size_t>(stride_));
    switch (o.kind) {
      case kGoal:
      case kPoint:
        return model_->CheckReachAnswer(o.a, answer.table, o.b, stride_,
                                        phase);
      case kInsert:
      case kDelete:
        ApplyToModel(o.kind, {o.a, o.b});
        return true;
    }
    return false;
  }

  std::vector<std::string> Notes() const override {
    pw::IvmStats stats = view_->stats();
    return {"lineage: base rows " +
            std::to_string(view_->base().table(0).num_rows()) + ", tc rows " +
            std::to_string(view_->Materialized().table(1).num_rows()) +
            ", deletes covered " + std::to_string(stats.deletes_covered) +
            ", cone rebuilds " + std::to_string(stats.cone_rebuilds) +
            ", rows over-deleted " + std::to_string(stats.rows_overdeleted)};
  }

  bool Checkpoint() override {
    return model_->CheckEdges(view_->base().table(0)) &&
           model_->CheckClosure(view_->Materialized().table(1));
  }

 private:
  static pw::DatalogCTableOptions GoalOptions() {
    pw::DatalogCTableOptions options;
    options.condition_backend = pw::ConditionBackendKind::kDecisionDiagrams;
    return options;
  }

  /// tc(a, ?) when b < 0, else tc(a, b).
  static std::vector<std::optional<pw::ConstId>> Bindings(int a, int b) {
    if (b < 0) return {a, std::nullopt};
    return {a, b};
  }

  Answer Goal(int a, int b) {
    Answer answer;
    answer.table = pw::DatalogQueryOnCTables(TransitiveClosure(),
                                             view_->base(), 1, Bindings(a, b),
                                             nullptr, GoalOptions());
    answer.digest = TableDigest(answer.table);
    return answer;
  }

  /// Toggle t is present in the base for even t: delete then re-insert it;
  /// odd ones are inserted then deleted again.
  static std::array<Kind, 2> Flip(size_t t) {
    if (t % 2 == 0) return {kDelete, kInsert};
    return {kInsert, kDelete};
  }

  void ApplyToModel(Kind k, std::pair<int, int> fact) {
    if (k == kInsert) {
      model_->Insert(fact.first, fact.second);
    } else {
      model_->Delete(fact.first, fact.second);
    }
  }

  std::optional<EdgeModel> model_;
  std::vector<std::pair<int, int>> toggles_;
  std::string text_;
  std::vector<Op> ops_;
  int stride_ = 1;
  std::optional<pw::MaterializedView> view_;
  pw::CTable shadow_;  // the traced run's tables-layer twin of the base
};

}  // namespace

std::unique_ptr<Workload> MakeLineage() { return std::make_unique<Lineage>(); }

}  // namespace pwbench
