type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable is_closed : bool;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Bq.create: capacity %d < 1" capacity);
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    capacity;
    is_closed = false;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let capacity t = t.capacity
let length t = locked t (fun () -> Queue.length t.items)
let try_push t x =
  locked t (fun () ->
      if t.is_closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.add x t.items;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  locked t (fun () ->
      let rec wait () =
        match Queue.take_opt t.items with
        | Some x -> Some x
        | None ->
          if t.is_closed then None
          else begin
            Condition.wait t.nonempty t.mu;
            wait ()
          end
      in
      wait ())

let close t =
  locked t (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.nonempty)
