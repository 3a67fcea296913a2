// Atomic file output: write to `<path>.tmp.<pid>`, then rename onto the
// final path on commit. POSIX rename is atomic within a filesystem, so a
// reader can never observe a truncated or half-written file — either the
// old content is there, or the complete new content is. Every
// BENCH_*.json / CSV emitter in the tree writes through this, so a bench
// killed mid-write (Ctrl-C, SIGTERM) leaves at worst a stale `.tmp.<pid>`
// file behind, never a torn output.
#ifndef AG_HARNESS_ATOMIC_IO_H
#define AG_HARNESS_ATOMIC_IO_H

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

namespace ag::harness {

class AtomicFile {
 public:
  explicit AtomicFile(std::string path)
      : path_{std::move(path)},
        tmp_path_{path_ + ".tmp." + std::to_string(::getpid())},
        out_{tmp_path_, std::ios::trunc} {}

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  ~AtomicFile() {
    // Not committed (error path or exception unwind): drop the partial
    // temp file so nothing mistakes it for output.
    if (!committed_) {
      out_.close();
      std::remove(tmp_path_.c_str());
    }
  }

  [[nodiscard]] std::ofstream& stream() { return out_; }
  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  // Flush + close + rename over the final path. Returns false (and
  // removes the temp file) if any write failed or the rename did.
  [[nodiscard]] bool commit() {
    out_.flush();
    const bool wrote_ok = static_cast<bool>(out_);
    out_.close();
    if (!wrote_ok || std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_path_.c_str());
      return false;
    }
    committed_ = true;
    return true;
  }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool committed_{false};
};

}  // namespace ag::harness

#endif  // AG_HARNESS_ATOMIC_IO_H
