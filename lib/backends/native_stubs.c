/* C side of the native tier (native.ml): load compiled kernels with
   dlopen, call them on OCaml float arrays, and start the compiler in its
   own process group so that a timeout or process exit can kill the whole
   gcc pipeline (gcc, cc1, as, ld) at once. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <stdio.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

typedef void (*sf_kernel)(double *const *, const long *, const double *);

CAMLprim value sf_native_dlopen(value path)
{
  CAMLparam1(path);
  char msg[512];
  char *p = caml_stat_strdup(String_val(path));
  void *h;
  caml_enter_blocking_section();
  h = dlopen(p, RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *e = dlerror();
    snprintf(msg, sizeof msg, "%s", e ? e : "dlopen failed");
  }
  caml_leave_blocking_section();
  caml_stat_free(p);
  if (h == NULL) caml_failwith(msg);
  CAMLreturn(caml_copy_nativeint((intnat) h));
}

CAMLprim value sf_native_dlsym(value handle, value name)
{
  CAMLparam2(handle, name);
  void *f = dlsym((void *) Nativeint_val(handle), String_val(name));
  if (f == NULL) caml_raise_not_found();
  CAMLreturn(caml_copy_nativeint((intnat) f));
}

/* [@@noalloc]: no OCaml allocation and the runtime lock is kept, so no
   collection can move the arrays while the kernel runs.  Data pointers
   are read afresh on every call (a small floatarray may live in the
   minor heap and move between calls).  Geometry arrives as OCaml ints
   and is untagged into a C array. */
CAMLprim value sf_native_call(value fn, value arrays, value geo, value coefs)
{
  mlsize_t na = Wosize_val(arrays), ng = Wosize_val(geo), i;
  double *ptrs[na > 0 ? na : 1];
  long g[ng > 0 ? ng : 1];
  for (i = 0; i < na; i++) ptrs[i] = (double *) Field(arrays, i);
  for (i = 0; i < ng; i++) g[i] = Long_val(Field(geo, i));
  ((sf_kernel) Nativeint_val(fn))(ptrs, g, (const double *) coefs);
  return Val_unit;
}

/* posix_spawnp [prog argv] with environment [envp] in a new process
   group, stdin from /dev/null and stdout+stderr to [log].  Returns the
   pid, or minus the errno when the spawn itself failed (ENOENT: the
   program is not on PATH). */
CAMLprim value sf_native_spawn(value prog, value argv, value envp, value log)
{
  CAMLparam4(prog, argv, envp, log);
  mlsize_t na = Wosize_val(argv), ne = Wosize_val(envp), i;
  char **av = caml_stat_alloc((na + 1) * sizeof(char *));
  char **ev = caml_stat_alloc((ne + 1) * sizeof(char *));
  posix_spawn_file_actions_t fa;
  posix_spawnattr_t at;
  sigset_t none, all;
  pid_t pid;
  int rc;
  for (i = 0; i < na; i++) av[i] = (char *) String_val(Field(argv, i));
  av[na] = NULL;
  for (i = 0; i < ne; i++) ev[i] = (char *) String_val(Field(envp, i));
  ev[ne] = NULL;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, String_val(log),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawnattr_init(&at);
  sigemptyset(&none);
  sigfillset(&all);
  posix_spawnattr_setsigmask(&at, &none);
  posix_spawnattr_setsigdefault(&at, &all);
  posix_spawnattr_setpgroup(&at, 0);
  posix_spawnattr_setflags(&at, POSIX_SPAWN_SETPGROUP | POSIX_SPAWN_SETSIGMASK
                                    | POSIX_SPAWN_SETSIGDEF);
  rc = posix_spawnp(&pid, String_val(prog), &fa, &at, av, ev);
  posix_spawnattr_destroy(&at);
  posix_spawn_file_actions_destroy(&fa);
  caml_stat_free(av);
  caml_stat_free(ev);
  CAMLreturn(Val_long(rc == 0 ? (long) pid : -(long) rc));
}
