/* The CPU-time clock of another process (clock_getcpuclockid), so the
   benchmark can read how long the server ran on a CPU.  The clock counts
   time the server's threads were scheduled, not time the host gave to
   other tasks or other guests (steal), so it measures the program's own
   work on a shared machine. */

#define _POSIX_C_SOURCE 200809L
#include <errno.h>
#include <string.h>
#include <sys/types.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

value tml_perfbench_cpu_clock(value pid)
{
  clockid_t clock;
  int err = clock_getcpuclockid((pid_t)Int_val(pid), &clock);
  if (err != 0) caml_failwith(strerror(err));
  return Val_long((long)clock);
}

value tml_perfbench_clock_seconds(value clock)
{
  struct timespec ts;
  if (clock_gettime((clockid_t)Long_val(clock), &ts) != 0)
    caml_failwith(strerror(errno));
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

value tml_perfbench_thread_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
    caml_failwith(strerror(errno));
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
