// dcpim-sa fixture: calls resolved by the receiver's declared type.
//
// Golden expectations (tests/test_dcpim_sa.py):
//   - a std::vector push_back on the hot path is a std allocation, and it
//     must NOT pull the project's own RecvLedger::push_back into the path
//   - a call through a RecvPacer member reaches RecvPacer::tick only, never
//     the unrelated RecvAuditor::tick
//   - a bare call to the class's own append() is a project call, not a std
//     allocation; the growth inside append() is what fires
//   - a project-typed receiver's insert() is a project call, not a std
//     allocation
//   - a call result is typed by the callee's declared return type: a
//     push_back through an accessor returning std::vector& is std growth
#include <vector>

namespace fixture {

class RecvLedger {
 public:
  void push_back(int v) { last_ = new int(v); }  // never hot-reachable

 private:
  int* last_ = nullptr;
};

class RecvAuditor {
 public:
  void tick() { probes_ = new int(0); }  // never hot-reachable

 private:
  int* probes_ = nullptr;
};

class RecvPacer {
 public:
  void tick() { ++credits_; }

 private:
  int credits_ = 0;
};

class RecvRing {
 public:
  void insert(int v) { cells_[v & 7] = v; }

 private:
  int cells_[8] = {};
};

class RecvEngine {
 public:
  // sa-hot
  void pump(int v) {
    pending_.push_back(v);  // planted: std growth on the hot path
    pacer_.tick();
    append(v);
    ring_.insert(v);
    staging().push_back(v);  // planted: std growth through an accessor
  }

 private:
  void append(int v) {
    batch_.push_back(v);  // planted: the growth inside the project append
  }

  std::vector<int>& staging() { return staging_; }

  std::vector<int> pending_;
  std::vector<int> batch_;
  std::vector<int> staging_;
  RecvPacer pacer_;
  RecvRing ring_;
};

}  // namespace fixture
