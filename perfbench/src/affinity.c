/* Pins the calling thread to one CPU. The benchmark pins itself to the
   client's CPU and, around each fork of a daemon, to the daemon's: a
   child inherits its parent's mask, so the daemon starts pinned with no
   helper process in the timed spawn. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

value perfbench_pin_self(value v_cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(v_cpu), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) caml_failwith("sched_setaffinity");
  return Val_unit;
}
