/* getrusage(2) for the benchmark harness: OCaml's Unix library exposes
   CPU times (Unix.times) but not ru_maxrss, and peak_rss_mb needs the
   largest resident set of any process in the run, which on Linux is
   max(RUSAGE_SELF, RUSAGE_CHILDREN) once every child has been reaped. */

#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

static double tv_seconds(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec / 1e6;
}

/* (utime_s, stime_s, maxrss_kib) for RUSAGE_SELF (who = 0) or
   RUSAGE_CHILDREN (who = 1). */
CAMLprim value perfbench_getrusage(value who)
{
  CAMLparam1(who);
  CAMLlocal1(res);
  struct rusage ru;
  int w = Int_val(who) == 0 ? RUSAGE_SELF : RUSAGE_CHILDREN;
  if (getrusage(w, &ru) != 0) {
    ru.ru_utime.tv_sec = ru.ru_utime.tv_usec = 0;
    ru.ru_stime.tv_sec = ru.ru_stime.tv_usec = 0;
    ru.ru_maxrss = 0;
  }
  res = caml_alloc_tuple(3);
  Store_field(res, 0, caml_copy_double(tv_seconds(ru.ru_utime)));
  Store_field(res, 1, caml_copy_double(tv_seconds(ru.ru_stime)));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
