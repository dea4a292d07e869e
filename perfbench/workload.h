// Race-free operation generation and the namespace model the benchmark
// checks the cluster against.
//
// A mutation (create, unlink, rename) holds its name(s) exclusively from the
// moment it is issued until it completes; a read (stat, open/close, setattr)
// may only target a name that no mutation holds, and a mutation never takes
// a name that a read is still using. Every op the generator issues therefore
// has exactly one correct outcome, so any non-OK status is a failure of the
// system under test, not of the generator.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"

namespace perfbench {

// Op classes, named after the MetadataService calls they issue. kOpen is the
// Tab 2 "open/close" class: Open followed by Close of the same file. kReaddir
// is OpenDir -> ReaddirPage... -> CloseDir.
enum class OpClass : int {
  kCreate = 0,
  kUnlink,
  kRename,
  kStat,
  kOpen,
  kSetAttr,
  kStatDir,
  kReaddir,
};
const char* OpClassName(OpClass cls);

enum class Workload { kCreateStorm, kPanguMix, kHotStat };
bool ParseWorkload(const std::string& name, Workload* out);

// Fixed namespace shape shared by every workload.
inline constexpr uint32_t kNumDirs = 1024;
inline constexpr uint32_t kFilesPerDir = 100;

struct Op {
  OpClass cls = OpClass::kStat;
  uint32_t dir = 0;
  std::string name;   // target file (empty for directory ops)
  std::string name2;  // rename destination
};

std::string DirPath(uint32_t dir);
inline std::string FilePath(uint32_t dir, const std::string& name) {
  return DirPath(dir) + "/" + name;
}
// Name of the i-th preloaded file of every directory.
inline std::string PreloadedName(uint32_t i) { return "f" + std::to_string(i); }

class Generator {
 public:
  Generator(Workload workload, uint64_t seed);

  // Draws the next op and reserves the names it uses.
  Op Next();
  // Releases the op's reservations. A successful mutation is applied to the
  // model; a failed one is assumed not to have happened (the post-drain check
  // then reports it if it did).
  void Complete(const Op& op, bool ok);

  // Names the model expects in `dir`. Exact only while no op is in flight.
  const std::vector<std::string>& live(uint32_t dir) const {
    return dirs_[dir].live;
  }
  bool touched(uint32_t dir) const { return dirs_[dir].touched; }
  uint64_t live_files() const { return live_files_; }

 private:
  struct DirState {
    // Existing names no mutation holds; reads and mutations draw from here.
    std::vector<std::string> live;
    // Reads in flight per name; a mutation skips names listed here.
    std::unordered_map<std::string, int> readers;
    uint64_t next_fresh = 0;
    bool touched = false;
  };

  uint32_t PickSkewedDir();
  // Picks a live name of `dir` with no reader and removes it from `live`.
  // Returns false if none was found within a few draws.
  bool TakeForMutation(uint32_t dir, std::string* name);
  Op MakeRead(OpClass cls, uint32_t dir, size_t index);
  Op NextPangu();
  Op NextHotStat();

  Workload workload_;
  switchfs::Rng rng_;
  std::vector<DirState> dirs_;
  std::vector<OpClass> mix_classes_;
  std::unique_ptr<switchfs::DiscreteSampler> mix_;
  std::unique_ptr<switchfs::ZipfGenerator> hot_zipf_;
  uint64_t live_files_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
