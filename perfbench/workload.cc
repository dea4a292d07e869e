#include "workload.h"

#include "src/workload/generator.h"

namespace perfbench {

namespace {

// §7.6 skew: this share of ops targets the hottest fifth of the directories.
constexpr double kHotDirShare = 0.8;
constexpr uint32_t kHotDirs = kNumDirs / 5;
// hot-stat: Zipf exponent over the hottest directory's files, and the shares
// of uniform namespace-wide stats and hot-directory creates.
constexpr double kHotStatTheta = 1.05;
constexpr double kHotStatUniformShare = 0.05;
constexpr double kHotStatCreateShare = 0.05;
// Draws a mutation makes before giving up on a directory whose names are all
// being read.
constexpr int kMutationDraws = 8;

}  // namespace

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kCreate:
      return "create";
    case OpClass::kUnlink:
      return "unlink";
    case OpClass::kRename:
      return "rename";
    case OpClass::kStat:
      return "stat";
    case OpClass::kOpen:
      return "open";
    case OpClass::kSetAttr:
      return "setattr";
    case OpClass::kStatDir:
      return "statdir";
    case OpClass::kReaddir:
      return "readdir";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "create-storm") {
    *out = Workload::kCreateStorm;
  } else if (name == "pangu-mix") {
    *out = Workload::kPanguMix;
  } else if (name == "hot-stat") {
    *out = Workload::kHotStat;
  } else {
    return false;
  }
  return true;
}

std::string DirPath(uint32_t dir) { return "/dir" + std::to_string(dir); }

Generator::Generator(Workload workload, uint64_t seed)
    : workload_(workload), rng_(seed), dirs_(kNumDirs) {
  for (DirState& ds : dirs_) {
    ds.live.reserve(kFilesPerDir);
    for (uint32_t i = 0; i < kFilesPerDir; ++i) {
      ds.live.push_back(PreloadedName(i));
    }
  }
  live_files_ = static_cast<uint64_t>(kNumDirs) * kFilesPerDir;
  if (workload_ == Workload::kPanguMix) {
    const switchfs::wl::MixRatios m = switchfs::wl::PanguMix();
    const std::pair<double, OpClass> weights[] = {
        {m.open_close, OpClass::kOpen},  {m.stat, OpClass::kStat},
        {m.create, OpClass::kCreate},    {m.unlink, OpClass::kUnlink},
        {m.rename, OpClass::kRename},    {m.chmod, OpClass::kSetAttr},
        {m.readdir, OpClass::kReaddir},  {m.statdir, OpClass::kStatDir},
    };
    std::vector<double> w;
    for (const auto& [weight, cls] : weights) {
      w.push_back(weight);
      mix_classes_.push_back(cls);
    }
    mix_ = std::make_unique<switchfs::DiscreteSampler>(std::move(w));
  }
}

uint32_t Generator::PickSkewedDir() {
  if (rng_.NextBool(kHotDirShare)) {
    return static_cast<uint32_t>(rng_.NextBelow(kHotDirs));
  }
  return kHotDirs + static_cast<uint32_t>(rng_.NextBelow(kNumDirs - kHotDirs));
}

bool Generator::TakeForMutation(uint32_t dir, std::string* name) {
  DirState& ds = dirs_[dir];
  for (int draw = 0; draw < kMutationDraws && !ds.live.empty(); ++draw) {
    const size_t i = rng_.NextBelow(ds.live.size());
    if (ds.readers.count(ds.live[i]) != 0) {
      continue;
    }
    *name = std::move(ds.live[i]);
    ds.live[i] = std::move(ds.live.back());
    ds.live.pop_back();
    return true;
  }
  return false;
}

Op Generator::MakeRead(OpClass cls, uint32_t dir, size_t index) {
  DirState& ds = dirs_[dir];
  Op op;
  op.cls = cls;
  op.dir = dir;
  op.name = ds.live[index];
  ++ds.readers[op.name];
  return op;
}

Op Generator::Next() {
  Op op;
  switch (workload_) {
    case Workload::kCreateStorm: {
      op.cls = OpClass::kCreate;
      op.dir = PickSkewedDir();
      op.name = "n" + std::to_string(dirs_[op.dir].next_fresh++);
      break;
    }
    case Workload::kPanguMix:
      op = NextPangu();
      break;
    case Workload::kHotStat:
      op = NextHotStat();
      break;
  }
  dirs_[op.dir].touched = true;
  return op;
}

Op Generator::NextPangu() {
  const OpClass cls = mix_classes_[mix_->Next(rng_)];
  const uint32_t dir = PickSkewedDir();
  DirState& ds = dirs_[dir];
  Op op;
  op.cls = cls;
  op.dir = dir;
  switch (cls) {
    case OpClass::kCreate:
      op.name = "n" + std::to_string(ds.next_fresh++);
      return op;
    case OpClass::kUnlink:
    case OpClass::kRename:
      if (!TakeForMutation(dir, &op.name)) {
        break;  // every name is being read: fall back to a statdir
      }
      if (cls == OpClass::kRename) {
        op.name2 = "r" + std::to_string(ds.next_fresh++);
      }
      return op;
    case OpClass::kStat:
    case OpClass::kOpen:
    case OpClass::kSetAttr:
      if (ds.live.empty()) {
        break;
      }
      return MakeRead(cls, dir, rng_.NextBelow(ds.live.size()));
    case OpClass::kStatDir:
    case OpClass::kReaddir:
      return op;
  }
  op.cls = OpClass::kStatDir;
  op.name.clear();
  return op;
}

Op Generator::NextHotStat() {
  const double u = rng_.NextDouble();
  if (u < kHotStatCreateShare) {
    Op op;
    op.cls = OpClass::kCreate;
    op.dir = 0;
    op.name = "n" + std::to_string(dirs_[0].next_fresh++);
    return op;
  }
  if (u < kHotStatCreateShare + kHotStatUniformShare) {
    const auto dir = static_cast<uint32_t>(rng_.NextBelow(kNumDirs));
    return MakeRead(OpClass::kStat, dir,
                    rng_.NextBelow(dirs_[dir].live.size()));
  }
  // Nothing in hot-stat removes a name, so live index i keeps its Zipf rank.
  const size_t n = dirs_[0].live.size();
  if (hot_zipf_ == nullptr || hot_zipf_->n() != n) {
    hot_zipf_ = std::make_unique<switchfs::ZipfGenerator>(n, kHotStatTheta);
  }
  return MakeRead(OpClass::kStat, 0, hot_zipf_->Next(rng_));
}

void Generator::Complete(const Op& op, bool ok) {
  DirState& ds = dirs_[op.dir];
  switch (op.cls) {
    case OpClass::kCreate:
      if (ok) {
        ds.live.push_back(op.name);
        ++live_files_;
      }
      return;
    case OpClass::kUnlink:
      if (ok) {
        --live_files_;
      } else {
        ds.live.push_back(op.name);
      }
      return;
    case OpClass::kRename:
      ds.live.push_back(ok ? op.name2 : op.name);
      return;
    case OpClass::kStat:
    case OpClass::kOpen:
    case OpClass::kSetAttr: {
      auto it = ds.readers.find(op.name);
      if (--it->second == 0) {
        ds.readers.erase(it);
      }
      return;
    }
    case OpClass::kStatDir:
    case OpClass::kReaddir:
      return;
  }
}

}  // namespace perfbench
